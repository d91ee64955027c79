// Deep structural validators for every container the counting stack trusts.
// Each validate() walks the whole object and throws chk::CheckError on the
// first violated invariant — unsorted CSR rows, out-of-bounds indices,
// nnz/row_ptr drift, CSR/CSC mirror disagreement, epoch regression, or an
// incremental butterfly count that no longer matches its materialised
// graph.
//
// The functions are always compiled (corruption-injection tests call them
// directly in every build lane); the BFC_VALIDATE macro gates the call
// sites wired into the hot mutation seams — loader/generator returns,
// DynamicButterflyCounter batches, SnapshotStore publishes, la/ kernel
// entry — so a release build pays nothing.
#pragma once

#include <span>

#include "chk/check.hpp"
#include "util/common.hpp"

// Forward declarations keep this header light enough for the lowest layers
// (sparse/) to include without an upward dependency on graph/count/svc.
namespace bfc::sparse {
class CsrPattern;
struct CsrCounts;
class CooBuilder;
}  // namespace bfc::sparse
namespace bfc::graph {
class BipartiteGraph;
}
namespace bfc::count {
class DynamicButterflyCounter;
}
namespace bfc::svc {
struct GraphSnapshot;
}

namespace bfc::chk {

/// Raw-array CSR shape check: row_ptr has rows+1 entries starting at 0,
/// monotone, ending at nnz; every row's column indices sorted, unique and
/// in [0, cols). The shared core of validate(CsrPattern), the CsrPattern
/// constructor, and the corruption-injection tests (which feed deliberately
/// broken arrays that could never come out of the constructor).
void validate_csr_arrays(vidx_t rows, vidx_t cols,
                         std::span<const offset_t> row_ptr,
                         std::span<const vidx_t> col_idx);

/// Re-validates an existing pattern (detects post-construction corruption).
void validate(const sparse::CsrPattern& p);

/// Pattern checks plus values array sized to nnz.
void validate(const sparse::CsrCounts& c);

/// Pending COO entries all in [0, rows) x [0, cols).
void validate(const sparse::CooBuilder& b);

/// `at` is exactly the transpose of `a`: shapes swapped, nnz equal, and
/// every edge present in both orientations. O(nnz log deg).
void validate_mirror(const sparse::CsrPattern& a, const sparse::CsrPattern& at);

/// Both orientations structurally valid, CSR/CSC mirror agreement, and the
/// degree sums of the two sides both equal to nnz.
void validate(const graph::BipartiteGraph& g);

/// Adjacency vectors sorted/unique/in-range on both sides, V1/V2 mirror
/// agreement, and edge_count() equal to the degree sum. O(edges log deg);
/// materialises nothing and recounts nothing.
void validate_structure(const count::DynamicButterflyCounter& c);

/// validate_structure, then the materialised graph validated, the
/// incremental butterfly count and tip vectors checked against a
/// from-scratch recount, and the top-pair buffer against its contract
/// (count::DynamicButterflyCounter::top_pairs) with one top-pairs pass.
void validate(const count::DynamicButterflyCounter& c);

/// Snapshot-internal consistency: graph valid, edges field equal to the
/// materialised edge count, the incrementally maintained butterfly count
/// and tip vectors (one entry per vertex) equal to a from-scratch recount,
/// and the top-pair buffer exact, its floor honest (one top-pairs pass) and
/// certifying every k ≤ K′.
void validate(const svc::GraphSnapshot& s);

/// Publish-seam check: epochs advance by exactly one per batch.
void validate_epoch_transition(const svc::GraphSnapshot& prev,
                               const svc::GraphSnapshot& next);

/// Shard-ownership check: a shard graph spans the full (n1, n2) dimensions
/// but may only populate V1 rows inside its owned range [lo, hi) — every
/// row outside must be empty. O(n1) over row_ptr, no edge walk.
void validate_shard_range(const graph::BipartiteGraph& g, vidx_t lo,
                          vidx_t hi);

}  // namespace bfc::chk

#if defined(BFC_CHECKED_ENABLED) && BFC_CHECKED_ENABLED
#define BFC_VALIDATE(x) ::bfc::chk::validate(x)
#else
#define BFC_VALIDATE(x) static_cast<void>(0)
#endif
