// The pluggable rule set. Each rule is a pure function over one lexed file
// plus shared context (the telemetry registry); the engine in analyzer.cpp
// owns file discovery, fingerprinting, baselines, and output formats.
//
// Rule catalog (documented in docs/static-analysis.md):
//   epoch-discipline        snapshot/shard-view lifetime + epoch-keyed caches
//   checked-accumulation    butterfly/wedge count math must go through chk::
//   raw-sync                std sync primitives outside util/sync.hpp
//   seq-cst                 atomic ops on hot paths need explicit orders
//   cancellation-checkpoint kernels taking a CancelToken must consult it
//   metric-registry         metric literals must exist in metrics.registry
//   span-pairing            span/tag literals: lifetime + registry contract
//   eager-message           computed require/enforce messages in loop bodies
//   wedge-loop              dense-accumulator wedge loops outside the primitive
//   suppression             malformed or unknown suppression markers
// Flow-sensitive families (rules_flow.cpp, built on flow.hpp):
//   lifetime-escape         views bound to temporaries / escaping locals
//   fd-lifecycle            close-exactly-once on every path, incl. throws
//   retry-idempotence       retry loops wrap only idempotent RPCs
//   deadline-propagation    deadlines reach every blocking leg; no blocking
//                           syscall under a live lock guard
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model.hpp"
#include "registry.hpp"

namespace bfc::analyze {

struct Finding {
  std::string rule;
  std::string file;
  int line = 1;
  int col = 1;
  std::string message;
  std::string snippet;
  std::string fingerprint;  // filled by the engine, content-based
};

struct RuleContext {
  const Registry* registry = nullptr;  // null = registry rules stay quiet
  std::vector<std::string> rule_names;  // for the suppression meta-rule
};

struct Rule {
  const char* name;
  const char* summary;
  std::function<void(const SourceFile&, const RuleContext&,
                     std::vector<Finding>&)>
      run;
};

[[nodiscard]] const std::vector<Rule>& all_rules();

/// The flow-sensitive rule families (rules_flow.cpp): lifetime-escape,
/// fd-lifecycle, retry-idempotence, deadline-propagation. Merged into
/// all_rules(); exposed separately for targeted tests.
[[nodiscard]] std::vector<Rule> flow_rules();

/// Appends a finding at `tok` unless a suppression for `rule` covers it.
void emit(const SourceFile& f, const char* rule, const Token& tok,
          std::string message, std::vector<Finding>& out);

}  // namespace bfc::analyze
