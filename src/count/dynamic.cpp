#include "chk/checked_math.hpp"
#include "count/dynamic.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sparse/csr.hpp"

namespace bfc::count {
namespace {

/// Calls visit(x) for every x in a ∩ b (sorted ranges), ascending. Linear
/// two-pointer merge when the sizes are comparable; when one side is much
/// smaller, gallop (exponential search + binary search) through the larger
/// side so the cost is O(min · log(max/min)) rather than O(min + max).
template <typename Visit>
void for_each_common(std::span<const vidx_t> a, std::span<const vidx_t> b,
                     Visit&& visit) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;

  if (b.size() / a.size() >= 8) {
    // Galloping: positions in b advance monotonically because a is sorted.
    std::size_t lo = 0;
    for (const vidx_t x : a) {
      std::size_t step = 1;
      std::size_t hi = lo;
      while (hi < b.size() && b[hi] < x) {
        lo = hi + 1;
        hi += step;
        step *= 2;
      }
      hi = std::min(hi, b.size());
      const auto it = std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(lo),
                                       b.begin() + static_cast<std::ptrdiff_t>(hi), x);
      lo = static_cast<std::size_t>(it - b.begin());
      if (lo < b.size() && b[lo] == x) {
        visit(x);
        ++lo;
      }
      if (lo >= b.size()) break;
    }
    return;
  }

  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      visit(a[i]);
      ++i;
      ++j;
    }
  }
}

/// Inserts x into the sorted vector; returns false if already present.
bool sorted_insert(std::vector<vidx_t>& v, vidx_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

/// Erases x from the sorted vector; returns false if absent.
bool sorted_erase(std::vector<vidx_t>& v, vidx_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

}  // namespace

DynamicButterflyCounter::DynamicButterflyCounter(vidx_t n1, vidx_t n2)
    : n1_(n1), n2_(n2) {
  require(n1 >= 0 && n2 >= 0, "DynamicButterflyCounter: negative dimension");
  adj_v1_.resize(static_cast<std::size_t>(n1));
  adj_v2_.resize(static_cast<std::size_t>(n2));
  tips_v1_.assign(static_cast<std::size_t>(n1), 0);
  tips_v2_.assign(static_cast<std::size_t>(n2), 0);
  top_.floor = VertexPair{};  // no edges, so no connected pair is left out
  top_degree_.assign(static_cast<std::size_t>(n1), 0);
  dirty_v1_.assign(static_cast<std::size_t>(n1), 0);
  dirty_v2_.assign(static_cast<std::size_t>(n2), 0);
}

TopPairBuffer DynamicButterflyCounter::top_pairs() const {
  TopPairBuffer sorted = top_;
  std::ranges::sort(sorted.pairs, pair_order);
  return sorted;
}

void DynamicButterflyCounter::rebuild_top_pairs(
    const graph::BipartiteGraph& g) {
  require(g.n1() == n1_ && g.n2() == n2_ && g.edge_count() == edges_,
          "DynamicButterflyCounter::rebuild_top_pairs: not this graph");
  top_ = TopPairBuffer::of(g);
  std::ranges::fill(top_degree_, 0);
  for (const VertexPair& p : top_.pairs) note_top_pair(p, 1);
}

void DynamicButterflyCounter::note_top_pair(const VertexPair& p, int delta) {
  for (const vidx_t x : {p.a, p.b}) {
    std::uint8_t& degree = top_degree_[static_cast<std::size_t>(x)];
    degree = static_cast<std::uint8_t>(degree + delta);
  }
}

std::uint64_t DynamicButterflyCounter::top_slots_of(vidx_t u) const {
  static_assert(TopPairBuffer::kCapacity <= 64, "one bit per buffer slot");
  static_assert(TopPairBuffer::kCapacity <= 255, "top_degree_ is 8-bit");
  if (top_degree_[static_cast<std::size_t>(u)] == 0) return 0;
  std::uint64_t slots = 0;
  for (std::size_t i = 0; i < top_.pairs.size(); ++i)
    if (top_.pairs[i].a == u || top_.pairs[i].b == u)
      slots |= std::uint64_t{1} << i;
  return slots;
}

bool DynamicButterflyCounter::offer_top_pair(vidx_t u, vidx_t w, count_t c,
                                             std::uint64_t mine) {
  std::vector<VertexPair>& pairs = top_.pairs;
  for (; mine != 0; mine &= mine - 1) {
    VertexPair& slot = pairs[static_cast<std::size_t>(std::countr_zero(mine))];
    if (slot.a != w && slot.b != w) continue;
    if (c != 0) {
      slot.wedges = c;
      return false;
    }
    note_top_pair(slot, -1);  // drained: no longer a connected pair
    slot = pairs.back();
    pairs.pop_back();
    return true;
  }
  const VertexPair pair{std::min(u, w), std::max(u, w), c};
  if (!pair_order(pair, top_.floor)) return false;
  pairs.push_back(pair);
  note_top_pair(pair, 1);
  if (pairs.size() > TopPairBuffer::kCapacity) {
    const auto lowest = std::ranges::max_element(pairs, pair_order);
    if (pair_order(*lowest, top_.floor)) top_.floor = *lowest;
    note_top_pair(*lowest, -1);
    *lowest = pairs.back();
    pairs.pop_back();
  }
  return true;
}

bool DynamicButterflyCounter::has_edge(vidx_t u, vidx_t v) const {
  require(u >= 0 && u < n1_ && v >= 0 && v < n2_,
          "DynamicButterflyCounter: vertex out of range");
  const std::vector<vidx_t>& nu = adj_v1_[static_cast<std::size_t>(u)];
  return std::binary_search(nu.begin(), nu.end(), v);
}

std::span<const vidx_t> DynamicButterflyCounter::neighbors_v1(vidx_t u) const {
  require(u >= 0 && u < n1_, "DynamicButterflyCounter: vertex out of range");
  return adj_v1_[static_cast<std::size_t>(u)];
}

std::span<const vidx_t> DynamicButterflyCounter::neighbors_v2(vidx_t v) const {
  require(v >= 0 && v < n2_, "DynamicButterflyCounter: vertex out of range");
  return adj_v2_[static_cast<std::size_t>(v)];
}

graph::BipartiteGraph DynamicButterflyCounter::to_graph() const {
  return materialise(nullptr);
}

graph::BipartiteGraph DynamicButterflyCounter::to_graph(
    const graph::BipartiteGraph& last) const {
  require(last.n1() == n1_ && last.n2() == n2_,
          "DynamicButterflyCounter::to_graph: last graph has another shape");
  return materialise(&last);
}

graph::BipartiteGraph DynamicButterflyCounter::materialise(
    const graph::BipartiteGraph* last) const {
  // adj_v2_ holds the rows of Aᵀ, sorted like those of A in adj_v1_, so the
  // CSC is a second copy of rows rather than a transpose.
  return graph::BipartiteGraph(
      materialise_rows(adj_v1_, dirty_v1_,
                       last != nullptr ? &last->csr() : nullptr, n2_, edges_),
      materialise_rows(adj_v2_, dirty_v2_,
                       last != nullptr ? &last->csc() : nullptr, n1_, edges_));
}

sparse::CsrPattern DynamicButterflyCounter::materialise_rows(
    const std::vector<std::vector<vidx_t>>& rows,
    const std::vector<std::uint8_t>& dirty, const sparse::CsrPattern* last,
    vidx_t cols, offset_t nnz) {
  const std::size_t n = rows.size();
  std::vector<offset_t> row_ptr(n + 1, 0);
  std::vector<vidx_t> col_idx;
  col_idx.reserve(static_cast<std::size_t>(nnz));
  for (std::size_t r = 0; r < n; ++r) {
    if (last != nullptr && dirty[r] == 0) {
      // The clean run [r, end): one copy of last's entries, and its row_ptr
      // slice shifted to where they land. `last` is an immutable, checked
      // pattern of this shape, so its rows need no second check.
      const auto* next = static_cast<const std::uint8_t*>(
          std::memchr(dirty.data() + r, 1, n - r));
      const std::size_t end =
          next != nullptr ? static_cast<std::size_t>(next - dirty.data()) : n;
      const std::vector<offset_t>& ptr = last->row_ptr();
      const offset_t shift = static_cast<offset_t>(col_idx.size()) - ptr[r];
      col_idx.insert(col_idx.end(), last->col_idx().begin() + ptr[r],
                     last->col_idx().begin() + ptr[end]);
      for (std::size_t i = r; i < end; ++i) row_ptr[i + 1] = ptr[i + 1] + shift;
      r = end - 1;
      continue;
    }
    vidx_t prev = -1;
    for (const vidx_t c : rows[r]) {
      require(prev < c && c < cols,
              "DynamicButterflyCounter: adjacency out of range or unsorted");
      prev = c;
    }
    col_idx.insert(col_idx.end(), rows[r].begin(), rows[r].end());
    row_ptr[r + 1] = static_cast<offset_t>(col_idx.size());
  }
  // A stale `last` with an extra or missing entry in a clean row shows here.
  require(static_cast<offset_t>(col_idx.size()) == nnz,
          "DynamicButterflyCounter::to_graph: rows do not add up to "
          "edge_count()");
  return sparse::CsrPattern::trusted(static_cast<vidx_t>(n), cols,
                                     std::move(row_ptr), std::move(col_idx));
}

void DynamicButterflyCounter::mark_dirty(vidx_t u, vidx_t v) noexcept {
  std::uint8_t& row_u = dirty_v1_[static_cast<std::size_t>(u)];
  std::uint8_t& row_v = dirty_v2_[static_cast<std::size_t>(v)];
  dirty_rows_ += (row_u == 0 ? 1 : 0) + (row_v == 0 ? 1 : 0);
  row_u = row_v = 1;
}

void DynamicButterflyCounter::clear_dirty() noexcept {
  std::ranges::fill(dirty_v1_, 0);
  std::ranges::fill(dirty_v2_, 0);
  dirty_rows_ = 0;
}

count_t DynamicButterflyCounter::support_of(vidx_t u, vidx_t v, bool insert) {
  const auto credit = [insert](count_t& tip, count_t n) {
    tip = insert ? chk::checked_add(tip, n) : chk::checked_sub(tip, n);
  };
  const std::vector<vidx_t>& nu = adj_v1_[static_cast<std::size_t>(u)];
  std::uint64_t mine = top_slots_of(u);
  count_t total = 0;
  for (const vidx_t w : adj_v2_[static_cast<std::size_t>(v)]) {
    if (w == u) continue;
    // Both N(u) and N(w) contain v; every other common neighbour x closes
    // the butterfly (u, w, v, x).
    count_t closed = 0;
    for_each_common(nu, adj_v1_[static_cast<std::size_t>(w)], [&](vidx_t x) {
      if (x == v) return;
      ++closed;
      count_t& tip = tips_v2_[static_cast<std::size_t>(x)];
      insert ? ++tip : --tip;
    });
    credit(tips_v1_[static_cast<std::size_t>(w)], closed);
    total = chk::checked_add(total, closed);
    // The pair keeps v as a common neighbour after an insert and loses it
    // with a remove.
    if (offer_top_pair(u, w, insert ? closed + 1 : closed, mine))
      mine = top_slots_of(u);
  }
  credit(tips_v1_[static_cast<std::size_t>(u)], total);
  credit(tips_v2_[static_cast<std::size_t>(v)], total);
  return total;
}

count_t DynamicButterflyCounter::insert(vidx_t u, vidx_t v) {
  if (has_edge(u, v)) return 0;
  sorted_insert(adj_v1_[static_cast<std::size_t>(u)], v);
  sorted_insert(adj_v2_[static_cast<std::size_t>(v)], u);
  mark_dirty(u, v);
  ++edges_;
  const count_t created = support_of(u, v, /*insert=*/true);
  butterflies_ = chk::checked_add(butterflies_, created);
  return created;
}

count_t DynamicButterflyCounter::remove(vidx_t u, vidx_t v) {
  if (!has_edge(u, v)) return 0;
  const count_t destroyed = support_of(u, v, /*insert=*/false);
  sorted_erase(adj_v1_[static_cast<std::size_t>(u)], v);
  sorted_erase(adj_v2_[static_cast<std::size_t>(v)], u);
  mark_dirty(u, v);
  --edges_;
  butterflies_ = chk::checked_sub(butterflies_, destroyed);
  return destroyed;
}

}  // namespace bfc::count
