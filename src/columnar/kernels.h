// Vectorized compute kernels over columns: scalar comparisons producing
// selection vectors, gather (Take), multi-key sort indices, and row
// hashing for hash aggregation. These are the primitives both the engine
// operators and the OCS embedded engine are built on.
//
// Kernel contracts (DESIGN.md §15):
//   * Inner loops run over contiguous typed spans (Column::i64_data()
//     et al.) with no per-row virtual dispatch; the comparison op is a
//     compile-time template parameter so the hot loop is branch-light
//     and autovectorization-friendly. The same code is the scalar
//     fallback — there are no intrinsics, only loops the compiler can
//     lower to SIMD where the target allows.
//   * Selection vectors are ascending, duplicate-free row indices into
//     the batch they were computed from. Passing `input` restricts a
//     kernel to those rows and the output is always a subset of it.
//   * Null values never match a comparison, and a NULL literal matches
//     nothing (SQL semantics).
#pragma once

#include <cstdint>
#include <vector>

#include "columnar/batch.h"
#include "columnar/column.h"

namespace pocs::columnar {

enum class CompareOp : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

std::string_view CompareOpName(CompareOp op);

using SelectionVector = std::vector<uint32_t>;

// Rows of `col` (restricted to `input` if non-null) where
// `col[i] <op> literal` holds. Null values never match. An integer column
// compares exactly with a float literal (`v < 1500.5` keeps 1500).
SelectionVector CompareScalar(const Column& col, CompareOp op,
                              const Datum& literal,
                              const SelectionVector* input = nullptr);

// Rows where lo <= col[i] <= hi (BETWEEN); float bounds on an integer
// column compare exactly, as in CompareScalar. Fused single pass: both
// bounds are tested in one traversal, no intermediate selection.
SelectionVector Between(const Column& col, const Datum& lo, const Datum& hi,
                        const SelectionVector* input = nullptr);

// Gather: out[i] = col[sel[i]]. Fixed-width types take a bulk path that
// memcpys maximal contiguous runs of the selection; strings gather
// offsets/chars directly.
std::shared_ptr<Column> Take(const Column& col, const SelectionVector& sel);
RecordBatchPtr TakeBatch(const RecordBatch& batch, const SelectionVector& sel);

// Row-wise hash of the given key columns; out has batch-length entries.
// Type dispatch is hoisted out of the row loop (one typed pass per key
// column, combined into the running hash).
void HashRows(const std::vector<ColumnPtr>& keys, std::vector<uint64_t>* out);

// True iff rows a and b are equal on every key column (null == null).
bool RowsEqual(const std::vector<ColumnPtr>& keys, size_t a, size_t b);
// Cross-column-set variant: keys_a[.] row a vs keys_b[.] row b.
bool RowsEqual(const std::vector<ColumnPtr>& keys_a, size_t a,
               const std::vector<ColumnPtr>& keys_b, size_t b);

struct SortKey {
  int column;       // index into the batch
  bool ascending = true;
  bool nulls_first = true;
};

// Stable sort permutation of batch rows by the given keys.
std::vector<uint32_t> SortIndices(const RecordBatch& batch,
                                  const std::vector<SortKey>& keys);

// Three-way comparison of row a vs row b under the sort keys.
int CompareRows(const RecordBatch& batch, const std::vector<SortKey>& keys,
                uint32_t a, uint32_t b);

}  // namespace pocs::columnar
