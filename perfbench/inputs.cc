#include "inputs.h"

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>

#include "util/rng.h"
#include "workload/query_gen.h"
#include "workload/zipf.h"

namespace bix {
namespace e2e {

Column MakeZipfColumn(uint64_t rows, uint32_t cardinality, uint64_t seed) {
  Rng permutation_rng(42);
  const ZipfDistribution dist(cardinality, 1.0, &permutation_rng);
  Rng row_rng(seed);
  Column column;
  column.cardinality = cardinality;
  column.values.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) column.values.push_back(dist.Sample(&row_rng));
  return column;
}

std::vector<Query> MakeQueryCycle(uint32_t cardinality, uint64_t seed,
                                  uint32_t queries_per_set) {
  std::vector<Query> cycle;
  for (const QuerySet& set :
       GeneratePaperQuerySets(cardinality, seed, queries_per_set)) {
    for (const MembershipQuery& q : set.queries) {
      cycle.push_back(Query{q.values, set.spec.n_int});
    }
  }
  std::mt19937_64 rng(seed ^ 0x5EEDC1C1Eull);
  std::shuffle(cycle.begin(), cycle.end(), rng);
  return cycle;
}

uint64_t DigestWords(const uint64_t* words, size_t n) {
  uint64_t h = 0x243F6A8885A308D3ull ^ n;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0x9FB21C651E98DF25ull;
    h ^= h >> 28;
  }
  return h;
}

namespace {

// Streams the result bitmap of "value in mask" over `values` 64 rows at a
// time, counting and digesting without materializing it.
template <typename Member>
Expected ScanWords(uint64_t rows, Member member) {
  const uint64_t n_words = (rows + 63) / 64;
  Expected e;
  uint64_t h = 0x243F6A8885A308D3ull ^ n_words;
  for (uint64_t w = 0; w < n_words; ++w) {
    const uint64_t base = w * 64;
    const uint64_t end = std::min<uint64_t>(rows, base + 64);
    uint64_t word = 0;
    for (uint64_t r = base; r < end; ++r) {
      word |= static_cast<uint64_t>(member(r)) << (r - base);
    }
    e.count += static_cast<uint64_t>(std::popcount(word));
    h = (h ^ word) * 0x9FB21C651E98DF25ull;
    h ^= h >> 28;
  }
  e.digest = h;
  return e;
}

std::vector<uint8_t> MaskOf(const Query& q, uint32_t cardinality) {
  std::vector<uint8_t> mask(cardinality, 0);
  for (uint32_t v : q.values) mask.at(v) = 1;
  return mask;
}

}  // namespace

std::vector<Expected> ScanOracle(const Column& column,
                                 const std::vector<Query>& queries,
                                 bool digests) {
  std::vector<Expected> out;
  out.reserve(queries.size());
  if (!digests) {
    std::vector<uint64_t> per_value(column.cardinality, 0);
    for (uint32_t v : column.values) ++per_value[v];
    for (const Query& q : queries) {
      Expected e;
      for (uint32_t v : q.values) e.count += per_value.at(v);
      out.push_back(e);
    }
    return out;
  }
  const uint32_t* values = column.values.data();
  for (const Query& q : queries) {
    const std::vector<uint8_t> mask = MaskOf(q, column.cardinality);
    const uint8_t* m = mask.data();
    out.push_back(ScanWords(column.row_count(),
                            [&](uint64_t r) { return m[values[r]]; }));
  }
  return out;
}

Mirror::Mirror(const Column& column)
    : values_(column.values),
      live_(column.values.size(), 1),
      live_per_value_(column.cardinality, 0) {
  for (uint32_t v : values_) ++live_per_value_[v];
}

uint64_t Mirror::CountOf(const Query& q) const {
  uint64_t n = 0;
  for (uint32_t v : q.values) n += live_per_value_.at(v);
  return n;
}

Expected Mirror::Scan(const Query& q) const {
  const std::vector<uint8_t> mask =
      MaskOf(q, static_cast<uint32_t>(live_per_value_.size()));
  const uint8_t* m = mask.data();
  const uint32_t* values = values_.data();
  const uint8_t* live = live_.data();
  return ScanWords(values_.size(),
                   [&](uint64_t r) { return m[values[r]] & live[r]; });
}

void Mirror::Insert(uint32_t value) {
  values_.push_back(value);
  live_.push_back(1);
  ++live_per_value_.at(value);
}

void Mirror::Update(uint64_t rid, uint32_t value) {
  if (!IsLive(rid)) throw std::logic_error("update of a deleted row");
  --live_per_value_[values_[rid]];
  values_[rid] = value;
  ++live_per_value_.at(value);
}

void Mirror::Delete(uint64_t rid) {
  if (!IsLive(rid)) throw std::logic_error("delete of a deleted row");
  live_[rid] = 0;
  --live_per_value_[values_[rid]];
}

std::vector<WriteBatch> MakeWriteBatches(const Column& column, uint64_t seed,
                                         size_t n, WriteMix mix) {
  std::mt19937_64 rng(seed ^ 0xBA7C4E5ull);
  const uint64_t base_rows = column.row_count();
  std::vector<uint8_t> live(base_rows, 1);
  // A row touched by the batch being built: each row appears at most once
  // per batch, so in-batch ordering never matters.
  std::vector<uint64_t> touched;
  const auto pick_live = [&] {
    while (true) {
      const uint64_t rid = rng() % live.size();
      if (live[rid] &&
          std::find(touched.begin(), touched.end(), rid) == touched.end()) {
        touched.push_back(rid);
        return rid;
      }
    }
  };
  const auto pick_value = [&] {
    return column.values[rng() % base_rows];
  };
  std::vector<WriteBatch> batches(n);
  for (WriteBatch& b : batches) {
    touched.clear();
    for (uint32_t i = 0; i < mix.updates; ++i) {
      const uint64_t rid = pick_live();
      b.updates.emplace_back(rid, pick_value());
    }
    for (uint32_t i = 0; i < mix.deletes; ++i) b.deletes.push_back(pick_live());
    for (uint32_t i = 0; i < mix.inserts; ++i) b.inserts.push_back(pick_value());
    for (uint64_t rid : b.deletes) live[rid] = 0;
    live.resize(live.size() + b.inserts.size(), 1);
  }
  return batches;
}

void ApplyToMirror(const WriteBatch& batch, Mirror* mirror) {
  for (uint32_t v : batch.inserts) mirror->Insert(v);
  for (const auto& [rid, value] : batch.updates) mirror->Update(rid, value);
  for (uint64_t rid : batch.deletes) mirror->Delete(rid);
}

}  // namespace e2e
}  // namespace bix
