// Seeded inputs and the independent oracle of the end-to-end benchmark.
//
// Everything a run feeds the program (the column, the query cycle, the
// write batches) is a pure function of the workload seed, and every answer
// the program returns is checked against a computation made here, apart
// from the program: a plain scan of the generated column (read workloads)
// or of the benchmark's own mirror of the logical column (mixed_write).
#ifndef BIX_PERFBENCH_INPUTS_H_
#define BIX_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "index/column.h"

namespace bix {
namespace e2e {

// A Zipf (z = 1) column of `rows` values over [0, cardinality). The
// paper's random rank-to-value assignment is drawn once from a fixed seed
// and only the rows are drawn from `seed`: which values are dense decides
// how much work a membership query does, and letting that follow the run's
// seed made the same program's cost differ by a third between seeds.
Column MakeZipfColumn(uint64_t rows, uint32_t cardinality, uint64_t seed);

// One membership query of the paper's query sets (Figs 8/9).
struct Query {
  std::vector<uint32_t> values;
  uint32_t n_int = 0;  // intervals in the query's value list
};

// The paper's 8 query sets (N_int in {1,2,5}, N_equ variants), flattened
// and shuffled into one fixed cycle. One pass of a workload is one trip
// around this cycle.
std::vector<Query> MakeQueryCycle(uint32_t cardinality, uint64_t seed,
                                  uint32_t queries_per_set);

// Order-sensitive 64-bit digest of a result bitmap's words, computed with
// a mix unrelated to anything in the program.
uint64_t DigestWords(const uint64_t* words, size_t n);

struct Expected {
  uint64_t count = 0;
  uint64_t digest = 0;
};

// The oracle of the mutable column behind mixed_write: logical values, a
// live flag per row, and the live-row count of every value, so the count
// of a membership query is a sum over its values.
class Mirror {
 public:
  explicit Mirror(const Column& column);

  uint64_t rows() const { return values_.size(); }
  const std::vector<uint32_t>& values() const { return values_; }
  bool IsLive(uint64_t rid) const { return live_[rid] != 0; }

  uint64_t CountOf(const Query& q) const;
  // Count and digest of the query's result bitmap by a full scan.
  Expected Scan(const Query& q) const;

  void Insert(uint32_t value);
  void Update(uint64_t rid, uint32_t value);
  void Delete(uint64_t rid);

 private:
  std::vector<uint32_t> values_;
  std::vector<uint8_t> live_;
  std::vector<uint64_t> live_per_value_;
};

// The oracle of a read-only column: one count and digest per distinct
// query of the cycle, each from a plain scan. Without `digests` only the
// counts are made, from one histogram of the column's values.
std::vector<Expected> ScanOracle(const Column& column,
                                 const std::vector<Query>& queries,
                                 bool digests);

// One write batch in wire form: rids are rows of the logical column as it
// stands when the batch applies.
struct WriteBatch {
  std::vector<uint32_t> inserts;
  std::vector<std::pair<uint64_t, uint32_t>> updates;  // {rid, value}
  std::vector<uint64_t> deletes;

  uint64_t ops() const {
    return inserts.size() + updates.size() + deletes.size();
  }
};

// Fixed proportions of one batch.
struct WriteMix {
  uint32_t updates = 8;
  uint32_t inserts = 4;
  uint32_t deletes = 4;

  uint64_t ops() const { return updates + inserts + deletes; }
};

// Generates `n` batches against an evolving copy of the column: updates
// and deletes pick distinct live rows, values follow the column's own
// (skewed) distribution by copying a random row's value.
std::vector<WriteBatch> MakeWriteBatches(const Column& column, uint64_t seed,
                                         size_t n, WriteMix mix);

// Applies a batch to a mirror (after the program acknowledged it).
void ApplyToMirror(const WriteBatch& batch, Mirror* mirror);

}  // namespace e2e
}  // namespace bix

#endif  // BIX_PERFBENCH_INPUTS_H_
