// Fixture suite for tools/analyze (bfc-analyze): one minimal positive and
// one negative fixture per rule, suppression-comment handling, and
// baseline-diff semantics — all driven in-process through the same engine
// the CLI uses, so the CLI is a thin shell over tested code.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "cache.hpp"
#include "flow.hpp"
#include "model.hpp"
#include "obs/json.hpp"
#include "registry.hpp"
#include "rules.hpp"

namespace bfc::analyze {
namespace {

/// Minimal registry shared by the metric/span fixtures.
Registry test_registry() {
  return Registry::parse("tools/analyze/metrics.registry",
                         "metric svc.cache_hits\n"
                         "metric svc.slo.violations.<kind>\n"
                         "metric svc.shard.<k>.publishes\n"
                         "span svc.query.<kind>\n"
                         "span svc.publish\n"
                         "tag epoch\n");
}

std::vector<Finding> analyze_one(const std::string& path,
                                 const std::string& code,
                                 const Registry* reg = nullptr) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string(path, code));
  return run_rules(files, reg);
}

std::vector<Finding> of_rule(const std::vector<Finding>& all,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : all)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// ---------------------------------------------------------------- lexer

TEST(AnalyzeLexer, TokensCarryPositionsAndKinds) {
  const LexedFile lf = lex("int x = 42;\nstd::mutex m;  // trailing\n");
  ASSERT_GE(lf.tokens.size(), 9u);
  EXPECT_TRUE(lf.tokens[0].ident("int"));
  EXPECT_EQ(lf.tokens[0].line, 1);
  EXPECT_TRUE(lf.tokens[3].is(Tok::kNumber, "42"));
  EXPECT_EQ(lf.comments.count(2), 1u);
  EXPECT_TRUE(lf.code_lines.count(1) != 0 && lf.code_lines.count(2) != 0);
}

TEST(AnalyzeLexer, CommentsAndStringsAreNotCode) {
  // The grep-era false positives: the primitive name inside a comment, a
  // string literal, and a /* block */ must produce no identifier tokens.
  const LexedFile lf = lex(
      "// std::mutex in a comment\n"
      "const char* s = \"std::mutex\";\n"
      "/* std::scoped_lock */\n");
  for (const Token& t : lf.tokens) EXPECT_FALSE(t.ident("mutex"));
  EXPECT_EQ(lf.code_lines.count(1), 0u);
  EXPECT_EQ(lf.code_lines.count(3), 0u);
}

TEST(AnalyzeLexer, RawStringsAndBracketMatching) {
  const LexedFile lf = lex("f(R\"x(a(b)x\", g[h[i]], {1, 2});");
  ASSERT_FALSE(lf.tokens.empty());
  EXPECT_TRUE(lf.tokens[0].ident("f"));
  ASSERT_TRUE(lf.tokens[1].punct("("));
  const std::size_t close = match_bracket(lf.tokens, 1);
  ASSERT_LT(close, lf.tokens.size());
  EXPECT_TRUE(lf.tokens[close].punct(")"));
  EXPECT_TRUE(lf.tokens[close + 1].punct(";"));
}

// ---------------------------------------------------------------- raw-sync

TEST(AnalyzeRawSync, FiresOnStdPrimitiveInSrc) {
  const auto fs = of_rule(
      analyze_one("src/svc/foo.cpp", "static std::mutex mu;\n"), "raw-sync");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(AnalyzeRawSync, QuietOnWrapperLayerCommentsAndBench) {
  // The wrapper layer itself, commented/string mentions, and non-src trees
  // are all out of scope.
  EXPECT_TRUE(of_rule(analyze_one("src/util/sync.hpp",
                                  "using Mutex = std::mutex;\n"),
                      "raw-sync")
                  .empty());
  EXPECT_TRUE(of_rule(analyze_one("src/svc/foo.cpp",
                                  "// std::mutex\nbfc::Mutex mu;\n"),
                      "raw-sync")
                  .empty());
  EXPECT_TRUE(of_rule(analyze_one("bench/foo.cpp", "std::mutex mu;\n"),
                      "raw-sync")
                  .empty());
}

TEST(AnalyzeRawSync, LegacySuppressionSpellingStillWorks) {
  EXPECT_TRUE(of_rule(analyze_one("src/svc/foo.cpp",
                                  "std::mutex mu;  // bfc-lint: raw-sync-ok\n"),
                      "raw-sync")
                  .empty());
}

// ----------------------------------------------------------------- seq-cst

TEST(AnalyzeSeqCst, FiresOnOrderlessAtomicOp) {
  const auto fs = of_rule(
      analyze_one("src/svc/foo.cpp", "auto v = hits.load();\n"), "seq-cst");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("load"), std::string::npos);
}

TEST(AnalyzeSeqCst, QuietWithExplicitOrderAccessorsAndLegacyMarker) {
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/foo.cpp",
                          "auto v = hits.load(std::memory_order_relaxed);\n"
                          "hits.fetch_add(1, std::memory_order_relaxed);\n"),
              "seq-cst")
          .empty());
  // Zero-argument store() is some other class's accessor, not atomic store.
  EXPECT_TRUE(of_rule(analyze_one("src/shard/foo.cpp",
                                  "auto& s = handle->store();\n"),
                      "seq-cst")
                  .empty());
  EXPECT_TRUE(of_rule(analyze_one("src/obs/foo.cpp",
                                  "gen.store(1);  // seq_cst: publish fence "
                                  "pairs with reader load\n"),
                      "seq-cst")
                  .empty());
}

TEST(AnalyzeSeqCst, SuppressionOnClosingParenLineOfMultiLineCall) {
  EXPECT_TRUE(of_rule(analyze_one("src/svc/foo.cpp",
                                  "epoch.store(\n"
                                  "    next);  // seq_cst: release handoff\n"),
                      "seq-cst")
                  .empty());
}

// ------------------------------------------------------ checked-accumulation

TEST(AnalyzeCheckedAccum, FiresOnRawCompoundAndSelfAssign) {
  const std::string code =
      "count_t total = 0;\n"
      "total += choose2(n);\n"
      "total = total + other;\n"
      "stats.butterflies += choose2(c);\n";
  const auto fs =
      of_rule(analyze_one("src/count/foo.cpp", code), "checked-accumulation");
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
  EXPECT_EQ(fs[2].line, 4);  // member named like a butterfly count
}

TEST(AnalyzeCheckedAccum, QuietOnCheckedCallsIncrementsAndOtherTypes) {
  const std::string code =
      "count_t total = 0;\n"
      "total = chk::checked_add(total, choose2(n));\n"
      "++total;\n"
      "total = g.edges();\n"      // plain reassignment, no self-arithmetic
      "std::size_t bytes = 0;\n"
      "bytes += 4096;\n";  // not a count_t, not butterfly/wedge-named
  EXPECT_TRUE(
      of_rule(analyze_one("src/count/foo.cpp", code), "checked-accumulation")
          .empty());
}

TEST(AnalyzeCheckedAccum, SuppressionAndExemptDirectories) {
  EXPECT_TRUE(of_rule(analyze_one(
                          "src/count/foo.cpp",
                          "count_t k = 1;\n"
                          "// bfc-analyze: checked-accumulation-ok bounded\n"
                          "k *= 4;\n"),
                      "checked-accumulation")
                  .empty());
  // chk/ implements the checked ops; obs/ and util/ never hold counts.
  EXPECT_TRUE(of_rule(analyze_one("src/chk/foo.cpp",
                                  "count_t t = 0;\nt += 1ull;\n"),
                      "checked-accumulation")
                  .empty());
}

// ---------------------------------------------------------- epoch-discipline

TEST(AnalyzeEpoch, FiresOnRawGetOfSnapshotPtr) {
  const std::string code =
      "void f(const SnapshotPtr& snap) {\n"
      "  use(snap.get());\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/svc/foo.cpp", code), "epoch-discipline");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(AnalyzeEpoch, FiresOnCacheKeyWithoutEpochComponent) {
  const auto fs = of_rule(
      analyze_one("src/svc/foo.cpp", "cache.put(CacheKey{kind, a, b}, r);\n"),
      "epoch-discipline");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("CacheKey"), std::string::npos);
}

TEST(AnalyzeEpoch, QuietOnKeyedCacheSharedPtrUseAndStructDef) {
  const std::string code =
      "struct CacheKey { std::uint64_t epoch; int kind; };\n"
      "void f(const SnapshotPtr& snap) {\n"
      "  cache.put(CacheKey{snap->epoch, kind}, r);\n"
      "  run(snap);\n"
      "}\n"
      "CacheKey k{view->signature, kind};\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/foo.cpp", code), "epoch-discipline")
          .empty());
}

// ---------------------------------------------- cancellation-checkpoint

TEST(AnalyzeCancel, FiresWhenTokenNeverConsulted) {
  const std::string code =
      "count_t kernel(const Graph& g, const CancelToken& cancel) {\n"
      "  count_t t = 0;\n"
      "  for (vidx_t v = 0; v < g.n1(); ++v) t = step(t, v);\n"
      "  return t;\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/la/foo.cpp", code),
                          "cancellation-checkpoint");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("cancel"), std::string::npos);
}

TEST(AnalyzeCancel, QuietOnCheckpointForwardingAndDeclarations) {
  const std::string code =
      // consulted directly
      "void a(const CancelToken& cancel) { cancel.checkpoint(\"a\"); }\n"
      // forwarded to a callee
      "void b(const CancelToken& cancel) { inner(g, cancel); }\n"
      // pure declaration: no body to check
      "void c(const CancelToken& cancel);\n"
      // member/local declarations are not parameters
      "struct S { CancelToken tok; };\n";
  EXPECT_TRUE(of_rule(analyze_one("src/count/foo.cpp", code),
                      "cancellation-checkpoint")
                  .empty());
}

// ------------------------------------------------------------ metric-registry

TEST(AnalyzeMetricRegistry, FiresOnUnregisteredLiteral) {
  const Registry reg = test_registry();
  const auto fs = of_rule(analyze_one("src/svc/foo.cpp",
                                      "BFC_COUNT_ADD(\"svc.cache_hitz\", 1);\n",
                                      &reg),
                          "metric-registry");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("svc.cache_hitz"), std::string::npos);
}

TEST(AnalyzeMetricRegistry, QuietOnRegisteredPlaceholderAndPrefixForms) {
  const Registry reg = test_registry();
  const std::string code =
      "BFC_COUNT_ADD(\"svc.cache_hits\", 1);\n"
      "BFC_COUNT_ADD(\"svc.slo.violations.tip_v1\", 1);\n"
      // dynamic family: prefix literal + runtime shard index
      "metrics.counter(\"svc.shard.\" + std::to_string(k) + \".publishes\")"
      ".add(1);\n"
      // second argument is a value, not a metric name
      "BFC_COUNT_ADD(\"svc.cache_hits\", hits);\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/foo.cpp", code, &reg), "metric-registry")
          .empty());
}

TEST(AnalyzeMetricRegistry, RegistryEntriesMustBeDocumented) {
  const Registry reg = test_registry();
  const std::string docs =
      "`svc.cache_hits` counts hits. `svc.slo.violations.<kind>` per kind. "
      "`svc.shard.<k>.publishes` per shard. `svc.query.<kind>` spans and "
      "the `svc.publish` root span.";
  EXPECT_TRUE(check_registry_documented(reg, docs).empty());
  const auto missing = check_registry_documented(reg, "nothing here");
  // every metric/span entry (tags are exempt) is now undocumented
  EXPECT_EQ(missing.size(), 5u);
  EXPECT_EQ(missing[0].rule, "metric-registry");
  EXPECT_EQ(missing[0].file, "tools/analyze/metrics.registry");
}

// --------------------------------------------------------------- span-pairing

TEST(AnalyzeSpanPairing, FiresOnNonLiteralNameAndUnknownNames) {
  const Registry reg = test_registry();
  const auto non_literal = of_rule(
      analyze_one("src/svc/foo.cpp",
                  "obs::Span span(root_context(req), name_variable);\n", &reg),
      "span-pairing");
  ASSERT_EQ(non_literal.size(), 1u);
  EXPECT_NE(non_literal[0].message.find("literal"), std::string::npos);

  const auto unknown = of_rule(
      analyze_one("src/svc/foo.cpp",
                  "obs::Span span(ctx, \"svc.mystery\");\n"
                  "sp->tag(\"not_a_tag\", \"v\");\n"
                  "obs::Span phase(\"svc.unknown_scope\");\n",
                  &reg),
      "span-pairing");
  EXPECT_EQ(unknown.size(), 3u);
}

TEST(AnalyzeSpanPairing, QuietOnRegisteredNamesDeclsAndNonNamespaced) {
  const Registry reg = test_registry();
  const std::string code =
      "obs::Span span(root_context(req), \"svc.query.global\");\n"
      "span.tag(\"epoch\", std::to_string(e));\n"
      "obs::Span phase(\"svc.publish\");\n"
      // non-namespaced names are free-form (bench.* / graph.* phases)
      "obs::Span load(\"graph.read_mtx\");\n"
      // declarations mention parameter types, not span names
      "SpanPtr open_span(const TraceContext& ctx, const char* name);\n"
      "void span_tag(const SpanPtr& span, const char* key, "
      "std::string_view value);\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/foo.cpp", code, &reg), "span-pairing")
          .empty());
}

// -------------------------------------------------------------- eager-message

TEST(AnalyzeEagerMessage, FiresOnComputedMessageInsideLoops) {
  const std::string code =
      "void validate(const Csr& p) {\n"
      "  for (vidx_t r = 0; r < p.rows(); ++r) {\n"
      "    chk::enforce(ok(r), at_row(\"csr: bad row\", r));\n"  // line 3
      "    for (const vidx_t c : p.row(r))\n"
      "      enforce(c >= 0, std::string(\"csr: col \") + std::to_string(c));\n"
      "  }\n"
      "}\n"
      "void route(std::span<const Up> batch) {\n"
      "  for (const Up& up : batch)\n"
      "    bfc::require(owned(up.u), \"wrong shard (u=\" +\n"  // line 10
      "                 std::to_string(up.u) + \")\");\n"
      "  const auto each = [&] { while (more()) require(ok(), what + s); };\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/shard/foo.cpp", code), "eager-message");
  ASSERT_EQ(fs.size(), 4u);
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_EQ(fs[1].line, 5);
  EXPECT_EQ(fs[2].line, 10);
  EXPECT_EQ(fs[3].line, 12);
  EXPECT_NE(fs[0].message.find("enforce()"), std::string::npos);
  EXPECT_NE(fs[2].message.find("require()"), std::string::npos);
}

TEST(AnalyzeEagerMessage, QuietOnLiteralsNamesRowFormAndOutsideLoops) {
  const std::string code =
      "void validate(const Csr& p, const std::string& what) {\n"
      // outside any loop: built once per call, not per entry
      "  enforce(p.rows() >= 0, \"csr: \" + what);\n"
      "  for (vidx_t r = 0; r < p.rows(); ++r) {\n"
      // literals (adjacent ones included), names, enforce_row
      "    enforce(ok(r), \"csr: row \" \"not monotone\");\n"
      "    require(ok(r), what);\n"
      "    require(ok(r), msgs::kBadRow);\n"
      "    chk::enforce_row(ok(r), \"csr: row not sorted\", r);\n"
      // other classes' members and one-argument calls are not ours
      "    cli.require(\"--\" + name);\n"
      "    require(ok(r));\n"
      // text built only on the throw path
      "    if (!ok(r)) throw std::invalid_argument(\"row \" + "
      "std::to_string(r));\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/chk/foo.cpp", code), "eager-message").empty());
}

TEST(AnalyzeEagerMessage, SuppressionWithRationaleSilences) {
  const std::string code =
      "void parse(const std::vector<std::string>& items) {\n"
      "  for (const std::string& it : items)\n"
      "    // bfc-analyze: eager-message-ok a few CLI entries at startup\n"
      "    require(known(it), \"unknown entry '\" + it + \"'\");\n"
      "}\n";
  const auto all = analyze_one("bench/foo.cpp", code);
  EXPECT_TRUE(of_rule(all, "eager-message").empty());
  EXPECT_TRUE(of_rule(all, "suppression").empty());
}

// ----------------------------------------------------------------- wedge-loop

// A hand-copied expansion loop seeded into a kernel: exactly one finding, at
// the first-touch `if`, whatever the other lines of the loop look like.
TEST(AnalyzeWedgeLoop, FiresOnceOnHandCopiedLoop) {
  const std::string code =
      "count_t per_row(const Csr& a, const Csr& at, vidx_t i) {\n"
      "  std::vector<count_t> acc(a.rows(), 0);\n"
      "  std::vector<vidx_t> touched;\n"
      "  for (const vidx_t k : a.row(i)) {\n"
      "    for (const vidx_t j : at.row(k)) {\n"
      "      if (acc[static_cast<std::size_t>(j)] == 0) touched.push_back(j);\n"
      "      ++acc[static_cast<std::size_t>(j)];\n"
      "    }\n"
      "  }\n"
      "  return drain(acc, touched);\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/count/foo.cpp", code), "wedge-loop");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 6);
  EXPECT_NE(fs[0].message.find("WedgeAccumulator"), std::string::npos);
}

TEST(AnalyzeWedgeLoop, QuietInThePrimitiveOnOtherShapesAndWhenSuppressed) {
  const std::string loop =
      "void f() {\n"
      "  if (t == 0) touched_.push_back(c);\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/count/wedges.hpp", loop), "wedge-loop").empty());
  const std::string other =
      "void g() {\n"
      "  if (removed.count(k) == 0) stable.push_back(k);\n"
      "  if (acc[j] != 0) touched.push_back(j);\n"
      "  if (n == 1) out.push_back(',');\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/count/foo.cpp", other), "wedge-loop").empty());
  const std::string kept =
      "void h() {\n"
      "  // bfc-analyze: wedge-loop-ok paper-faithful layer keeps its loop\n"
      "  if (acc[j] == 0) touched.push_back(j);\n"
      "}\n";
  const auto all = analyze_one("src/gb/foo.cpp", kept);
  EXPECT_TRUE(of_rule(all, "wedge-loop").empty());
  EXPECT_TRUE(of_rule(all, "suppression").empty());
}

// ---------------------------------------------------------------- suppression

TEST(AnalyzeSuppression, MalformedMarkersAreFindings) {
  const std::string code =
      "count_t t = 0;\n"
      "t += 1;  // bfc-analyze: checked-accumulation-ok\n"  // missing WHY
      "x();     // bfc-analyze: no-such-rule-ok because reasons\n";
  const auto all = analyze_one("src/count/foo.cpp", code);
  const auto sup = of_rule(all, "suppression");
  ASSERT_EQ(sup.size(), 2u);
  EXPECT_NE(sup[0].message.find("rationale"), std::string::npos);
  EXPECT_NE(sup[1].message.find("unknown rule"), std::string::npos);
  // ... and the rationale-less marker does NOT waive the real finding.
  EXPECT_EQ(of_rule(all, "checked-accumulation").size(), 1u);
}

TEST(AnalyzeSuppression, MarkerOnOwnLineCoversNextCodeLine) {
  const std::string code =
      "count_t t = 0;\n"
      "// bfc-analyze: checked-accumulation-ok fixture-bounded input\n"
      "t += 1;\n"
      "t += 2;\n";  // NOT covered: marker only reaches one line down
  const auto fs =
      of_rule(analyze_one("src/count/foo.cpp", code), "checked-accumulation");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 4);
}

// ------------------------------------------------------------- registry match

TEST(AnalyzeRegistry, SegmentMatchingAndParsing) {
  EXPECT_TRUE(registry_name_matches("svc.slo.violations.<kind>",
                                    "svc.slo.violations.edge"));
  EXPECT_FALSE(registry_name_matches("svc.slo.violations.<kind>",
                                     "svc.slo.violations"));
  EXPECT_FALSE(registry_name_matches("svc.cache_hits", "svc.cache_hits.x"));
  // prefix literal (source built the tail at runtime)
  EXPECT_TRUE(registry_name_matches("svc.shard.<k>.publishes", "svc.shard."));
  EXPECT_FALSE(registry_name_matches("svc.queries", "obs.queries"));

  std::vector<std::pair<int, std::string>> errors;
  const Registry reg = Registry::parse(
      "r", "# comment\n\nmetric a.b\nbogus x\nspan s.t extra\n", &errors);
  EXPECT_EQ(reg.entries.size(), 1u);
  EXPECT_EQ(errors.size(), 2u);
}

// ------------------------------------------------------------- baseline diff

TEST(AnalyzeBaseline, DiffWaivesExactlyTheBaselinedOccurrences) {
  const std::string one = "count_t t = 0;\nt += 1;\n";
  const std::string two = "count_t t = 0;\nt += 1;\nt += 1;\n";
  const auto before = analyze_one("src/count/foo.cpp", one);
  ASSERT_EQ(before.size(), 1u);
  const Baseline base = Baseline::parse(render_baseline(before));
  ASSERT_EQ(base.fingerprints.size(), 1u);

  // Same code, shifted lines: fingerprints are content-based, still waived.
  const auto shifted =
      analyze_one("src/count/foo.cpp", "// pad\n// pad\n" + one);
  EXPECT_TRUE(diff_baseline(shifted, base).empty());

  // A SECOND identical violation gets a new ordinal: only one is waived.
  const auto doubled = analyze_one("src/count/foo.cpp", two);
  ASSERT_EQ(doubled.size(), 2u);
  const auto fresh = diff_baseline(doubled, base);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_NE(fresh[0].fingerprint, base.fingerprints[0]);
}

TEST(AnalyzeBaseline, RejectsUnknownVersion) {
  EXPECT_THROW((void)Baseline::parse("{\"version\": 2, \"findings\": []}"),
               std::exception);
}

// ----------------------------------------------------------------- renderers

TEST(AnalyzeRender, JsonAndSarifAreWellFormed) {
  const auto fs = analyze_one("src/count/foo.cpp", "count_t t = 0;\nt += 1;\n");
  ASSERT_EQ(fs.size(), 1u);

  const obs::Json doc = obs::Json::parse(render_json(fs));
  EXPECT_EQ(doc.at("count").as_int(), 1);
  EXPECT_EQ(doc.at("findings").at(0).at("rule").as_string(),
            "checked-accumulation");

  const obs::Json sarif = obs::Json::parse(render_sarif(fs));
  EXPECT_EQ(sarif.at("version").as_string(), "2.1.0");
  const obs::Json& result = sarif.at("runs").at(0).at("results").at(0);
  EXPECT_EQ(result.at("ruleId").as_string(), "checked-accumulation");
  EXPECT_EQ(result.at("locations")
                .at(0)
                .at("physicalLocation")
                .at("artifactLocation")
                .at("uri")
                .as_string(),
            "src/count/foo.cpp");
  EXPECT_FALSE(
      result.at("partialFingerprints").at("bfcAnalyze/v1").as_string().empty());
  // the driver advertises the full rule catalog
  EXPECT_EQ(sarif.at("runs")
                .at(0)
                .at("tool")
                .at("driver")
                .at("rules")
                .size(),
            all_rules().size());
}

// ------------------------------------------------------------- flow model

TEST(AnalyzeFlow, ExtractsQualifiedFunctionsAndParams) {
  const std::string code =
      "std::uint64_t RemoteShard::query_wedges(vidx_t u, int timeout_ms) {\n"
      "  return 0;\n"
      "}\n";
  const SourceFile sf = SourceFile::from_string("src/shard/x.cpp", code);
  const auto fns = extract_functions(sf);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "query_wedges");
  ASSERT_EQ(fns[0].params.size(), 2u);
  EXPECT_EQ(fns[0].params[1].name, "timeout_ms");
}

TEST(AnalyzeFlow, ParsesBranchesLoopsAndTry) {
  const std::string code =
      "void f(int x) {\n"
      "  if (x > 0) { g(); } else { h(); }\n"
      "  for (int i = 0; i < x; ++i) { g(); }\n"
      "  try { g(); } catch (...) { h(); }\n"
      "}\n";
  const SourceFile sf = SourceFile::from_string("src/svc/x.cpp", code);
  const auto fns = extract_functions(sf);
  ASSERT_EQ(fns.size(), 1u);
  ASSERT_EQ(fns[0].body.size(), 3u);
  EXPECT_EQ(fns[0].body[0].kind, Stmt::Kind::kIf);
  EXPECT_EQ(fns[0].body[1].kind, Stmt::Kind::kLoop);
  EXPECT_EQ(fns[0].body[2].kind, Stmt::Kind::kTry);
}

// --------------------------------------------------------- lifetime-escape

// Regression: the shipped Cursor bug — a wire::Cursor constructed straight
// from the temporary std::string returned by rpc(); the buffer dies at the
// end of the statement and every subsequent read is use-after-free.
TEST(AnalyzeLifetime, FiresOnCursorOverTemporaryRpcReply) {
  const std::string code =
      "std::uint64_t RemoteShard::query(vidx_t u) {\n"
      "  wire::Cursor c(rpc(wire::Kind::kQuery, encode(u)));\n"
      "  return c.u64();\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/shard/remote.cpp", code),
                          "lifetime-escape");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_NE(fs[0].message.find("rpc"), std::string::npos);
}

TEST(AnalyzeLifetime, QuietOnTheFixedNamedOwnerShape) {
  const std::string code =
      "std::uint64_t RemoteShard::query(vidx_t u) {\n"
      "  const std::string reply = rpc(wire::Kind::kQuery, encode(u));\n"
      "  wire::Cursor c(reply);\n"
      "  return c.u64();\n"
      "}\n";
  EXPECT_TRUE(of_rule(analyze_one("src/shard/remote.cpp", code),
                      "lifetime-escape")
                  .empty());
}

TEST(AnalyzeLifetime, FiresOnViewBoundToSubstrAndStrTemporaries) {
  const std::string code =
      "void f(const std::string& s, std::ostringstream& oss) {\n"
      "  std::string_view head = s.substr(0, 4);\n"
      "  std::string_view all = oss.str();\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/svc/x.cpp", code), "lifetime-escape");
  ASSERT_EQ(fs.size(), 2u);
}

TEST(AnalyzeLifetime, QuietOnSpanReturningAccessorsAndViewSubstr) {
  // The codebase's dominant idiom: accessors handing out spans over
  // long-lived graph buffers, and substr on something already a view.
  const std::string code =
      "void f(const CsrView& g, std::string_view sv, vidx_t u) {\n"
      "  const std::span<const vidx_t> nu = g.neighbors_of_v1(u);\n"
      "  std::string_view tail = sv.substr(2);\n"
      "  use(nu, tail);\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/x.cpp", code), "lifetime-escape").empty());
}

TEST(AnalyzeLifetime, FiresOnReturningViewOfLocalOwner) {
  const std::string code =
      "std::string_view render_tag() {\n"
      "  std::string s = compose();\n"
      "  return s;\n"
      "}\n"
      "std::span<const char> frame() {\n"
      "  std::vector<char> buf(16);\n"
      "  std::span<const char> v = buf;\n"
      "  return v;\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/svc/x.cpp", code), "lifetime-escape");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_EQ(fs[1].line, 8);
}

TEST(AnalyzeLifetime, QuietOnReturningViewOfParamOrMember) {
  const std::string code =
      "std::string_view name(const std::string& stored) {\n"
      "  std::string_view v = stored;\n"
      "  return v;\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/svc/x.cpp", code), "lifetime-escape").empty());
}

TEST(AnalyzeLifetime, SuppressionWithRationaleSilences) {
  const std::string code =
      "void f() {\n"
      "  // bfc-analyze: lifetime-escape-ok consumed before end of statement\n"
      "  wire::Cursor c(rpc(wire::Kind::kPing, \"\"));\n"
      "}\n";
  EXPECT_TRUE(of_rule(analyze_one("src/shard/remote.cpp", code),
                      "lifetime-escape")
                  .empty());
}

// ------------------------------------------------------------ fd-lifecycle

// Regression: the shipped call_host double-close — the happy path closes
// the socket, then the tail of the try body throws and the catch closes it
// again. The fix (sentinel + guard) must stay quiet.
TEST(AnalyzeFd, FiresOnDoubleCloseAcrossCatch) {
  const std::string code =
      "std::string call_host(const std::string& path, int timeout_ms) {\n"
      "  int fd = connect_unix(path, timeout_ms);\n"
      "  try {\n"
      "    send_frame(fd, msg, timeout_ms);\n"
      "    Frame f = recv_frame(fd, timeout_ms);\n"
      "    ::close(fd);\n"
      "    decode(f);\n"
      "    return f.payload;\n"
      "  } catch (...) {\n"
      "    ::close(fd);\n"
      "    throw;\n"
      "  }\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/shard/transport.cpp", code), "fd-lifecycle");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 10);
  EXPECT_NE(fs[0].message.find("close"), std::string::npos);
}

TEST(AnalyzeFd, QuietOnSentinelGuardedClose) {
  const std::string code =
      "std::string call_host(const std::string& path, int timeout_ms) {\n"
      "  int fd = connect_unix(path, timeout_ms);\n"
      "  try {\n"
      "    send_frame(fd, msg, timeout_ms);\n"
      "    Frame f = recv_frame(fd, timeout_ms);\n"
      "    ::close(fd);\n"
      "    fd = -1;\n"
      "    decode(f);\n"
      "    return f.payload;\n"
      "  } catch (...) {\n"
      "    if (fd >= 0) ::close(fd);\n"
      "    throw;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(of_rule(analyze_one("src/shard/transport.cpp", code),
                      "fd-lifecycle")
                  .empty());
}

TEST(AnalyzeFd, FiresOnLeakAtEarlyReturnAndEndOfFunction) {
  const std::string code =
      "void a(const char* p) {\n"
      "  int fd = ::open(p, 0);\n"
      "  if (fd < 0) return;\n"
      "  if (parse(p)) return;\n"  // leaks fd
      "  ::close(fd);\n"
      "}\n"
      "void b(const char* p) {\n"
      "  int fd = ::open(p, 0);\n"
      "  use(fd);\n"
      "}\n";  // leaks fd at end of function
  const auto fs = of_rule(analyze_one("src/obs/x.cpp", code), "fd-lifecycle");
  ASSERT_EQ(fs.size(), 2u);
}

TEST(AnalyzeFd, QuietOnOwnershipTransferAndGuardedPaths) {
  const std::string code =
      "int listen_unix(const std::string& path) {\n"
      "  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
      "  require(fd >= 0, \"socket\");\n"
      "  if (::bind(fd, addr, len) != 0) {\n"
      "    ::close(fd);\n"
      "    require(false, \"bind\");\n"
      "  }\n"
      "  return fd;\n"
      "}\n"
      "void adopt(const char* p) {\n"
      "  int fd = ::open(p, 0);\n"
      "  if (fd < 0) return;\n"
      "  member_fd_ = fd;\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/shard/transport.cpp", code), "fd-lifecycle")
          .empty());
}

TEST(AnalyzeFd, FiresOnUseAfterClose) {
  const std::string code =
      "void f(const char* p) {\n"
      "  int fd = ::open(p, 0);\n"
      "  if (fd < 0) return;\n"
      "  ::close(fd);\n"
      "  ::send(fd, \"x\", 1, 0);\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/obs/x.cpp", code), "fd-lifecycle");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 5);
}

// -------------------------------------------------------- retry-idempotence

// Regression: a backoff loop retrying apply() — a lost reply after a
// successful apply double-applies the batch on the next attempt.
TEST(AnalyzeRetry, FiresOnSingleAttemptCallInsideRetryLoop) {
  const std::string code =
      "void push(RemoteShard& sh, const Batch& b) {\n"
      "  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {\n"
      "    try {\n"
      "      sh.apply(b);\n"
      "      return;\n"
      "    } catch (const std::exception&) {\n"
      "      std::this_thread::sleep_for(backoff(attempt));\n"
      "    }\n"
      "  }\n"
      "}\n";
  const auto fs =
      of_rule(analyze_one("src/shard/x.cpp", code), "retry-idempotence");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 4);
}

TEST(AnalyzeRetry, QuietOnIdempotentRetryAndRethrowingCatch) {
  const std::string code =
      // Idempotent probe: retrying query/ping is safe.
      "void wait_up(RemoteShard& sh) {\n"
      "  for (int attempt = 0; attempt < 5; ++attempt) {\n"
      "    try {\n"
      "      sh.ping();\n"
      "      return;\n"
      "    } catch (const std::exception&) {\n"
      "      std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "    }\n"
      "  }\n"
      "}\n"
      // Catch rethrows = not a retry of the body; single-attempt is fine.
      "void once(RemoteShard& sh, const Batch& b) {\n"
      "  for (int attempt = 0; attempt < 5; ++attempt) {\n"
      "    try {\n"
      "      sh.apply(b);\n"
      "      return;\n"
      "    } catch (const std::exception&) {\n"
      "      throw;\n"
      "    }\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(analyze_one("src/shard/x.cpp", code), "retry-idempotence")
          .empty());
}

// ----------------------------------------------------- deadline-propagation

TEST(AnalyzeDeadline, FiresWhenDeadlineParamNotThreaded) {
  const std::string code =
      "bool read_all(int fd, char* p, std::size_t n, int timeout_ms) {\n"
      "  return ::recv(fd, p, n, 0) == static_cast<ssize_t>(n);\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/shard/transport.cpp", code),
                          "deadline-propagation");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("timeout_ms"), std::string::npos);
}

TEST(AnalyzeDeadline, QuietWhenThreadedDerivedOrPacedByPoll) {
  const std::string code =
      // Derived budget threaded into poll; the recv after a bounded poll
      // is paced and allowed.
      "bool read_all(int fd, char* p, std::size_t n, int timeout_ms) {\n"
      "  const int wait_ms = remaining(timeout_ms);\n"
      "  if (::poll(&pfd, 1, wait_ms) <= 0) return false;\n"
      "  return ::recv(fd, p, n, 0) == static_cast<ssize_t>(n);\n"
      "}\n"
      // WNOHANG-style flags satisfy on their own.
      "void reap(int timeout_ms) {\n"
      "  ::waitpid(-1, nullptr, WNOHANG);\n"
      "}\n";
  EXPECT_TRUE(of_rule(analyze_one("src/shard/transport.cpp", code),
                      "deadline-propagation")
                  .empty());
}

TEST(AnalyzeDeadline, FiresOnBlockingCallUnderLockGuard) {
  const std::string code =
      "void Supervisor::reap(pid_t p) {\n"
      "  const MutexLock lock(mu_);\n"
      "  ::waitpid(p, nullptr, 0);\n"
      "}\n";
  const auto fs = of_rule(analyze_one("src/shard/supervisor.cpp", code),
                          "deadline-propagation");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("lock"), std::string::npos);
}

TEST(AnalyzeDeadline, QuietWhenGuardScopeEndsOrUnlocksFirst) {
  const std::string code =
      // Block-scoped guard released before the blocking leg.
      "void a(pid_t p) {\n"
      "  {\n"
      "    const MutexLock lock(mu_);\n"
      "    doomed_.push_back(p);\n"
      "  }\n"
      "  ::waitpid(p, nullptr, 0);\n"
      "}\n"
      // Explicit unlock() before, lock() after.
      "void b(Task& task) {\n"
      "  MutexLock lock(mu_);\n"
      "  lock.unlock();\n"
      "  task.rpc(\"go\");\n"
      "  lock.lock();\n"
      "}\n";
  EXPECT_TRUE(of_rule(analyze_one("src/svc/executor.cpp", code),
                      "deadline-propagation")
                  .empty());
}

// -------------------------------------------------------- incremental cache

TEST(AnalyzeCache, HitsOnUnchangedContentMissesOnEdit) {
  const std::string clean = "void f() { g(); }\n";
  const std::string dirty = "count_t t = 0;\nt += 1;\n";
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string("src/a.cpp", clean));
  files.push_back(SourceFile::from_string("src/count/b.cpp", dirty));

  Cache cache;
  CacheStats cold;
  const auto first = run_rules_cached(files, nullptr, cache, cold);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 2u);
  ASSERT_EQ(first.size(), 1u);  // the checked-accumulation hit in b.cpp

  // Unchanged tree: all hits, identical findings (fingerprints included).
  CacheStats warm;
  const auto second = run_rules_cached(files, nullptr, cache, warm);
  EXPECT_EQ(warm.hits, 2u);
  EXPECT_EQ(warm.misses, 0u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].fingerprint, first[0].fingerprint);
  EXPECT_EQ(second[0].message, first[0].message);

  // Edit one file: exactly one miss, and the cached findings still replay
  // for the untouched file.
  files[0] = SourceFile::from_string("src/a.cpp", "void f() { h(); }\n");
  CacheStats edited;
  const auto third = run_rules_cached(files, nullptr, cache, edited);
  EXPECT_EQ(edited.hits, 1u);
  EXPECT_EQ(edited.misses, 1u);
  EXPECT_EQ(third.size(), 1u);
}

TEST(AnalyzeCache, ToolHashChangeInvalidatesWholesale) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string("src/a.cpp", "void f() {}\n"));
  Cache cache;
  CacheStats cold;
  (void)run_rules_cached(files, nullptr, cache, cold);
  ASSERT_EQ(cold.misses, 1u);

  // A cache written by a different rule set / registry must not replay.
  cache.tool_hash = "0000000000000000";
  CacheStats stale;
  (void)run_rules_cached(files, nullptr, cache, stale);
  EXPECT_EQ(stale.hits, 0u);
  EXPECT_EQ(stale.misses, 1u);
  EXPECT_EQ(cache.tool_hash, compute_tool_hash(nullptr));
}

TEST(AnalyzeCache, RenderParseRoundTripAndCorruptInputIsCold) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string("src/count/b.cpp",
                                          "count_t t = 0;\nt += 1;\n"));
  Cache cache;
  CacheStats s1;
  (void)run_rules_cached(files, nullptr, cache, s1);

  const Cache reloaded = Cache::parse(cache.render());
  EXPECT_EQ(reloaded.tool_hash, cache.tool_hash);
  ASSERT_EQ(reloaded.files.size(), 1u);
  const auto& entry = reloaded.files.at("src/count/b.cpp");
  EXPECT_EQ(entry.content_hash,
            cache.files.at("src/count/b.cpp").content_hash);
  ASSERT_EQ(entry.findings.size(), 1u);
  EXPECT_EQ(entry.findings[0].rule, "checked-accumulation");

  // Corrupt JSON never throws out of load(): worst case is a cold run.
  EXPECT_THROW((void)Cache::parse("not json"), std::exception);
}

}  // namespace
}  // namespace bfc::analyze
