// The generated inputs of one (workload, seed, seconds) triple and their
// binary file format. The generator writes the file; the measured program
// reads it before anything is timed, so input generation stays out of both
// setup_s and peak_rss_mb.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

enum class QueryKind : std::uint32_t { kGlobal = 0, kTipV1, kTipV2, kEdge, kTop };
inline constexpr int kKinds = 5;

inline const char* kind_label(QueryKind k) {
  switch (k) {
    case QueryKind::kGlobal: return "global";
    case QueryKind::kTipV1: return "tip_v1";
    case QueryKind::kTipV2: return "tip_v2";
    case QueryKind::kEdge: return "edge";
    case QueryKind::kTop: return "top";
  }
  return "unknown";
}

struct GraphInput {
  std::string name;
  std::uint32_t n1 = 0;
  std::uint32_t n2 = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

struct Update {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint32_t insert = 1;  // 32 bits: no padding, so files are byte-stable
};

struct Query {
  QueryKind kind = QueryKind::kGlobal;
  std::uint32_t a = 0;  // vertex, edge endpoint u, or k
  std::uint32_t b = 0;  // edge endpoint v
};

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<GraphInput> graphs;             // kernel-phase graphs
  std::uint32_t serve_graph = 0;              // index of the served graph
  std::vector<std::vector<Update>> batches;   // the writer's script
  std::vector<std::vector<Query>> readers;    // one script per reader
};

namespace detail {

inline constexpr char kMagic[8] = {'P', 'B', 'I', 'N', 'P', 'U', 'T', '1'};

class Writer {
 public:
  explicit Writer(const std::string& path) : f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) throw std::runtime_error("cannot write " + path);
  }
  ~Writer() {
    if (f_ != nullptr) std::fclose(f_);
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void bytes(const void* p, std::size_t n) {
    if (n != 0 && std::fwrite(p, 1, n, f_) != n)
      throw std::runtime_error("short write");
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod<std::uint64_t>(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    pod<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }
  void close() {
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0) throw std::runtime_error("close failed");
  }

 private:
  std::FILE* f_;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : f_(std::fopen(path.c_str(), "rb")) {
    if (f_ == nullptr) throw std::runtime_error("cannot read " + path);
  }
  ~Reader() { std::fclose(f_); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void bytes(void* p, std::size_t n) {
    if (n != 0 && std::fread(p, 1, n, f_) != n)
      throw std::runtime_error("truncated input file");
  }
  template <typename T>
  T pod() {
    T v{};
    bytes(&v, sizeof v);
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const auto n = pod<std::uint64_t>();
    if (n > (std::uint64_t{1} << 32)) throw std::runtime_error("bad length");
    std::vector<T> v(static_cast<std::size_t>(n));
    bytes(v.data(), v.size() * sizeof(T));
    return v;
  }
  std::string str() {
    const auto n = pod<std::uint64_t>();
    if (n > 4096) throw std::runtime_error("bad string length");
    std::string s(static_cast<std::size_t>(n), '\0');
    bytes(s.data(), s.size());
    return s;
  }

 private:
  std::FILE* f_;
};

}  // namespace detail

inline void write_inputs(const Inputs& in, const std::string& path) {
  detail::Writer w(path);
  w.bytes(detail::kMagic, sizeof detail::kMagic);
  w.str(in.workload);
  w.pod(in.seed);
  w.pod<std::uint64_t>(in.graphs.size());
  for (const GraphInput& g : in.graphs) {
    w.str(g.name);
    w.pod(g.n1);
    w.pod(g.n2);
    w.vec(g.edges);
  }
  w.pod(in.serve_graph);
  w.pod<std::uint64_t>(in.batches.size());
  for (const auto& b : in.batches) w.vec(b);
  w.pod<std::uint64_t>(in.readers.size());
  for (const auto& r : in.readers) w.vec(r);
  w.close();
}

inline Inputs read_inputs(const std::string& path) {
  detail::Reader r(path);
  char magic[sizeof detail::kMagic];
  r.bytes(magic, sizeof magic);
  for (std::size_t i = 0; i < sizeof magic; ++i)
    if (magic[i] != detail::kMagic[i])
      throw std::runtime_error(path + " is not a perfbench input file");
  Inputs in;
  in.workload = r.str();
  in.seed = r.pod<std::uint64_t>();
  const auto graphs = r.pod<std::uint64_t>();
  if (graphs > 64) throw std::runtime_error("bad graph count");
  for (std::uint64_t i = 0; i < graphs; ++i) {
    GraphInput g;
    g.name = r.str();
    g.n1 = r.pod<std::uint32_t>();
    g.n2 = r.pod<std::uint32_t>();
    g.edges = r.vec<std::pair<std::uint32_t, std::uint32_t>>();
    in.graphs.push_back(std::move(g));
  }
  in.serve_graph = r.pod<std::uint32_t>();
  if (in.serve_graph >= in.graphs.size())
    throw std::runtime_error("bad serve graph index");
  const auto batches = r.pod<std::uint64_t>();
  if (batches > (1u << 20)) throw std::runtime_error("bad batch count");
  for (std::uint64_t i = 0; i < batches; ++i)
    in.batches.push_back(r.vec<Update>());
  const auto readers = r.pod<std::uint64_t>();
  if (readers > 64) throw std::runtime_error("bad reader count");
  for (std::uint64_t i = 0; i < readers; ++i)
    in.readers.push_back(r.vec<Query>());
  return in;
}

}  // namespace perfbench
