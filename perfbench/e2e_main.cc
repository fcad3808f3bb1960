// End-to-end benchmark of the bix serving stack:
//
//   NetClient -> TcpServer -> QueryService -> index (BuildIndex or
//   WritableBitmapIndex::Create) -> storage -> bitvector kernels
//
// One process runs one workload with one client connection in a closed
// loop, checks every answer against an oracle computed apart from the
// program, and prints its metrics as the last line of stdout:
//
//   bix_e2e --workload paper_miss|hot_count|mixed_write --seed N
//           --seconds S --trace 0|1 --workdir DIR [--scale full|small]
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs the
// same timed phase and then in-process passes that read the span tree
// QueryService returns for ServiceQuery::WithTrace() and time calls into
// each module from outside; it prints the per-layer metrics. See README.md
// for the workloads, the metric map and reference figures.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bitvector/kernels.h"
#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "inputs.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "server/query_service.h"
#include "util/crc32c.h"

namespace bix {
namespace e2e {
namespace {

using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

constexpr uint32_t kCardinality = 50;
constexpr int kSetupReps = 3;
// A run times at least this many queries, so its p99 has ten samples
// beyond it.
constexpr size_t kMinTimedQueries = 1000;
// mixed_write issues one write batch after every this many queries.
constexpr size_t kQueriesPerWrite = 4;

struct Spec {
  std::string name;
  uint64_t rows = 0;
  EncodingKind encoding = EncodingKind::kInterval;
  StorageCodec codec = StorageCodec::kVerbatim;
  uint64_t pool_bytes = 0;
  bool count_only = false;
  bool writable = false;
  uint32_t queries_per_set = 0;
  // Trips around the query cycle per timed pass.
  uint32_t cycles_per_pass = 1;
  // Timed passes per second of --seconds: the pass count is a function of
  // the argument alone, never of the clock, so every run of a workload
  // does identical work.
  double passes_per_second = 0.0;
  WriteMix mix;
};

bool MakeSpec(const std::string& name, bool small, Spec* s) {
  const uint64_t paper_rows = 6'000'000;
  const uint64_t rows = small ? 120'000 : paper_rows;
  s->name = name;
  s->rows = rows;
  // Query sets are larger than the paper's 10 queries each so that the
  // latency tail, set by the few heaviest queries of the cycle, moves
  // little from seed to seed; each cycle stays short enough for its
  // warm-up pass to be cheap.
  if (name == "paper_miss") {
    // The paper's 11 MB pool against an 18.75 MB verbatim working set;
    // the small scale keeps the same pool-to-working-set ratio.
    s->encoding = EncodingKind::kInterval;
    s->codec = StorageCodec::kVerbatim;
    s->pool_bytes = (11ull << 20) * rows / paper_rows;
    s->queries_per_set = 25;
    s->passes_per_second = 0.4;
  } else if (name == "hot_count") {
    s->encoding = EncodingKind::kEquality;
    s->codec = StorageCodec::kAuto;
    s->pool_bytes = 256ull << 20;
    s->count_only = true;
    s->queries_per_set = 125;
    s->passes_per_second = 0.4;
  } else if (name == "mixed_write") {
    s->encoding = EncodingKind::kInterval;
    s->codec = StorageCodec::kBbc;
    s->pool_bytes = 256ull << 20;
    s->count_only = true;
    s->writable = true;
    s->queries_per_set = 25;
    // The first few queries after a compaction miss the new epoch's cache.
    // At 400 queries per compaction they are about 2% of the samples, so
    // p99 lands inside that miss storm, a cost compaction puts on reads.
    // With fewer compactions p99 sat at the storm's edge, or in a steady
    // tail shorter than this VM's scheduling stalls, and moved from run to
    // run by a factor of three.
    s->cycles_per_pass = 2;
    s->passes_per_second = 1.0;
  } else {
    return false;
  }
  if (small) s->queries_per_set = 4;
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
  std::string workdir;
  bool small = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      have_seconds = *end == '\0' && n >= 1 && n <= 3600;
      a->seconds = static_cast<uint32_t>(n);
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--scale") {
      if (v != "full" && v != "small") return false;
      a->small = v == "small";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         have_seconds && have_trace && !a->workdir.empty();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Sum of the durations of the outermost spans named `name`.
int64_t SpanNanos(const TraceSpan& span, const char* name) {
  if (span.name == name) return span.duration_ns;
  int64_t total = 0;
  for (const TraceSpan& c : span.children) total += SpanNanos(c, name);
  return total;
}

// CPU time (user + system, all threads) this process has used. Unlike the
// wall clock it leaves out time the hypervisor steals from the VM.
double ProcessCpuSeconds() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// One serving stack. Members are declared bottom-up so they are destroyed
// top-down: client, server, service, then the index they serve.
struct Stack {
  std::unique_ptr<BitmapIndex> index;
  std::unique_ptr<WritableBitmapIndex> writable;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<TcpServer> server;
  NetClient client;
  std::string dir;
  double build_s = 0.0;
  double setup_s = 0.0;

  // The index currently served; for a writable index, the base of its
  // latest checkpoint (the returned handle keeps it alive).
  std::shared_ptr<const BitmapIndex> Base() const {
    if (writable != nullptr) return writable->Snapshot().base;
    return std::shared_ptr<const BitmapIndex>(index.get(),
                                              [](const BitmapIndex*) {});
  }
  void StopServing() {
    client.Close();
    if (server != nullptr) server->Shutdown();
    server.reset();
    service.reset();
  }
};

// Per-layer accumulators filled by the traced run.
struct Ledger {
  uint64_t queries = 0;
  double queue_ns = 0, rewrite_ns = 0, materialize_ns = 0, kernel_ns = 0,
         delta_merge_ns = 0;
  IoStats io;
  // TCP minus in-process latency of the same query sent both ways back to
  // back, per query of the cycle, in seconds.
  std::vector<std::vector<double>> overhead_by_query;
  std::vector<double> inproc_untraced_s, inproc_traced_s;
  uint64_t responses = 0;
  double response_bytes = 0, encode_s = 0, decode_s = 0;
  uint64_t batches = 0;
  double wal_append_ns = 0, apply_batch_s = 0;
  uint64_t compactions = 0;
  double compact_s = 0, fold_ns = 0, checkpoint_ns = 0;
};

class Bench {
 public:
  Bench(Spec spec, Args args)
      : spec_(std::move(spec)),
        args_(std::move(args)),
        order_rng_(args_.seed + 3) {}
  int Main();

 private:
  void Fail(const std::string& what) {
    if (correct_) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    correct_ = false;
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  IndexConfig Config() const {
    IndexConfig c;
    c.encoding = spec_.encoding;
    c.codec = spec_.codec;
    return c;
  }
  Status BuildStack(int rep, Stack* s);
  Expected ExpectedFor(size_t qi, bool full_scan) const;
  void CheckAnswer(size_t qi, uint64_t count, uint64_t row_bits,
                   const std::vector<uint64_t>* words, const char* where);

  // One op over TCP; returns false when the op failed.
  bool TcpQuery(Stack* s, size_t qi, bool count_only, double* latency);
  bool TcpWrite(Stack* s, const WriteBatch& b, double* latency);
  // One query through QueryService::Submit.
  bool InprocQuery(Stack* s, size_t qi, bool traced, Ledger* ledger,
                   double* latency);
  bool InprocWrite(Stack* s, const WriteBatch& b, bool traced, Ledger* l);
  // Compacts when the pending overlay reached the trigger.
  void MaybeCompact(Stack* s, bool in_process, bool traced, Ledger* l);

  // The order of the next trip around the cycle. Every trip of a timed or
  // in-process pass takes its own seeded order, so the queries that follow
  // a compaction (and meet its cache misses) differ from trip to trip
  // instead of always being the same few of the cycle.
  std::vector<size_t> NextOrder();
  void TimedPhase(Stack* s);
  void InprocPhase(Stack* s, bool traced, Ledger* l);
  void VerifyAfterRun(Stack* s);
  void VerifyRestart(Stack* s);
  void StoreThroughput(const BitmapStore& store, double* crc_gbps,
                       double* decode_gbps, uint64_t* roaring,
                       uint64_t* verbatim);

  const Spec spec_;
  const Args args_;
  std::mt19937_64 order_rng_;
  Column column_;
  std::vector<Query> cycle_;
  std::vector<Expected> oracle_;   // read-only workloads
  std::unique_ptr<Mirror> mirror_;  // mixed_write
  std::vector<WriteBatch> batches_;
  size_t next_batch_ = 0;
  size_t passes_ = 0;
  size_t inproc_passes_ = 0;
  // mixed_write compacts once a pass's worth of write ops is pending, so
  // every pass ends with exactly one compaction.
  uint64_t compact_after_ops_ = 0;
  uint64_t pending_sim_ = 0;
  uint64_t expected_compactions_ = 0;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;

  std::vector<double> query_lat_s_, write_lat_s_, pass_qps_;
};

Status Bench::BuildStack(int rep, Stack* s) {
  const auto t0 = SteadyClock::now();
  ServiceOptions opts;
  opts.buffer_pool_bytes = spec_.pool_bytes;
  if (spec_.writable) {
    s->dir = args_.workdir + "/rep" + std::to_string(rep);
    std::filesystem::remove_all(s->dir);
    std::filesystem::create_directories(s->dir);
    const auto b0 = SteadyClock::now();
    auto created = WritableBitmapIndex::Create(s->dir, column_, Config());
    if (!created.ok()) return created.status();
    s->build_s = Since(b0);
    s->writable = std::move(created).value();
    auto svc = Serve(s->writable.get(), opts);
    if (!svc.ok()) return svc.status();
    s->service = std::move(svc).value();
  } else {
    const auto b0 = SteadyClock::now();
    auto built = BuildIndex(column_, Config());
    if (!built.ok()) return built.status();
    s->build_s = Since(b0);
    s->index = std::make_unique<BitmapIndex>(std::move(built).value());
    auto svc = Serve(s->index.get(), opts);
    if (!svc.ok()) return svc.status();
    s->service = std::move(svc).value();
  }
  TcpServerOptions topts;
  topts.writable = s->writable.get();
  s->server = std::make_unique<TcpServer>(s->service.get(), topts);
  Status started = s->server->Start();
  if (!started.ok()) return started;
  auto client = NetClient::Connect("127.0.0.1", s->server->port());
  if (!client.ok()) return client.status();
  s->client = std::move(client).value();
  // Warm-up: one untimed pass of the query cycle in the workload's mode.
  for (size_t qi = 0; qi < cycle_.size(); ++qi) {
    double unused = 0.0;
    TcpQuery(s, qi, spec_.count_only, &unused);
  }
  s->setup_s = Since(t0);
  return Status::OK();
}

Expected Bench::ExpectedFor(size_t qi, bool full_scan) const {
  if (mirror_ == nullptr) return oracle_[qi];
  if (full_scan) return mirror_->Scan(cycle_[qi]);
  return Expected{mirror_->CountOf(cycle_[qi]), 0};
}

void Bench::CheckAnswer(size_t qi, uint64_t count, uint64_t row_bits,
                        const std::vector<uint64_t>* words,
                        const char* where) {
  // Messages are built only on failure: this runs inside the timed loop.
  const auto fail = [&](const std::string& what) {
    Fail(std::string(where) + " query " + std::to_string(qi) + ": " + what);
  };
  const Expected e = ExpectedFor(qi, words != nullptr);
  if (count != e.count) {
    fail("count " + std::to_string(count) + " != oracle " +
         std::to_string(e.count));
  }
  if (words == nullptr) return;
  const uint64_t rows = mirror_ != nullptr ? mirror_->rows() : spec_.rows;
  if (row_bits != rows) {
    fail("row_bits " + std::to_string(row_bits) + " != rows " +
         std::to_string(rows));
  }
  uint64_t pop = 0;
  for (uint64_t w : *words) pop += static_cast<uint64_t>(std::popcount(w));
  if (pop != count) fail("popcount differs from count");
  if (DigestWords(words->data(), words->size()) != e.digest) {
    fail("bitmap differs from oracle");
  }
}

bool Bench::TcpQuery(Stack* s, size_t qi, bool count_only, double* latency) {
  NetRequest req;
  req.type = FrameType::kMembership;
  req.values = cycle_[qi].values;
  req.count_only = count_only;
  const auto t0 = SteadyClock::now();
  Result<NetResponse> resp = s->client.Call(req);
  *latency = Since(t0);
  ++attempted_;
  if (!resp.ok() || resp.value().code != Status::Code::kOk) {
    // No operation of any workload is expected to fail: a failure is
    // counted and also fails the run, so quick rejections cannot pass for
    // fast answers.
    ++failed_;
    Fail("query " + std::to_string(qi) + " failed: " +
         (resp.ok() ? resp.value().message : resp.status().ToString()));
    return false;
  }
  const NetResponse& r = resp.value();
  CheckAnswer(qi, r.count, r.row_bits, count_only ? nullptr : &r.words,
              "tcp");
  return true;
}

bool Bench::TcpWrite(Stack* s, const WriteBatch& b, double* latency) {
  NetRequest req;
  req.type = FrameType::kWriteBatch;
  req.inserts = b.inserts;
  for (const auto& [rid, value] : b.updates) {
    req.updates.push_back(NetUpdate{rid, value});
  }
  req.deletes = b.deletes;
  const auto t0 = SteadyClock::now();
  Result<NetResponse> resp = s->client.Call(req);
  *latency = Since(t0);
  ++attempted_;
  if (!resp.ok() || resp.value().code != Status::Code::kOk) {
    ++failed_;
    Fail("write batch failed");
    return false;
  }
  Expect(resp.value().count == b.ops(), "write ack counts the wrong ops");
  ApplyToMirror(b, mirror_.get());
  return true;
}

bool Bench::InprocQuery(Stack* s, size_t qi, bool traced, Ledger* l,
                        double* latency) {
  ServiceQuery q = ServiceQuery::Membership(cycle_[qi].values);
  if (spec_.count_only) q.CountOnly();
  if (traced) q.WithTrace();
  const auto t0 = SteadyClock::now();
  QueryResult r = s->service->Submit(std::move(q)).get();
  *latency = Since(t0);
  ++attempted_;
  if (!r.status.ok()) {
    ++failed_;
    Fail("in-process query " + std::to_string(qi) + " failed: " +
         r.status.ToString());
    return false;
  }
  CheckAnswer(qi, r.count, r.rows.size(),
              spec_.count_only ? nullptr : &r.rows.words(), "in-process");
  if (spec_.encoding == EncodingKind::kInterval &&
      r.metrics.io.scans > 2ull * cycle_[qi].n_int) {
    Fail("query " + std::to_string(qi) + " scanned " +
         std::to_string(r.metrics.io.scans) + " bitmaps for N_int=" +
         std::to_string(cycle_[qi].n_int));
  }
  if (l == nullptr) return true;
  if (!traced) {
    l->inproc_untraced_s.push_back(*latency);
    // The response as the server would frame it, encoded and decoded here
    // so each side's cost is timed from outside the net module.
    NetResponse resp;
    resp.code = Status::Code::kOk;
    resp.count = r.count;
    if (r.rows.size() > 0) {
      resp.row_bits = r.rows.size();
      resp.words = r.rows.words();
    }
    const auto e0 = SteadyClock::now();
    const std::vector<uint8_t> frame = EncodeResponse(resp);
    l->encode_s += Since(e0);
    const auto d0 = SteadyClock::now();
    FrameParser parser(std::max<uint64_t>(kNetDefaultMaxPayloadBytes,
                                          frame.size()));
    Status fed = parser.Feed(frame.data(), frame.size());
    Result<NetResponse> decoded =
        fed.ok() && parser.HasFrame() ? DecodeResponse(parser.Next())
                                      : Result<NetResponse>(fed);
    l->decode_s += Since(d0);
    Expect(decoded.ok() && decoded.value().count == r.count,
           "response does not round-trip through the frame codec");
    l->response_bytes += static_cast<double>(frame.size());
    ++l->responses;
    return true;
  }
  l->inproc_traced_s.push_back(*latency);
  ++l->queries;
  l->io.Add(r.metrics.io);
  if (r.trace == nullptr) {
    Fail("traced query returned no span tree");
    return true;
  }
  const TraceSpan& t = *r.trace;
  l->queue_ns += static_cast<double>(SpanNanos(t, "admission") +
                                     SpanNanos(t, "queue"));
  l->rewrite_ns += static_cast<double>(SpanNanos(t, "rewrite"));
  l->materialize_ns += static_cast<double>(SpanNanos(t, "materialize"));
  l->kernel_ns += static_cast<double>(SpanNanos(t, "kernel"));
  l->delta_merge_ns += static_cast<double>(SpanNanos(t, "delta_merge"));
  return true;
}

bool Bench::InprocWrite(Stack* s, const WriteBatch& b, bool traced,
                        Ledger* l) {
  UpdateBatch batch;
  batch.inserts = b.inserts;
  for (const auto& [rid, value] : b.updates) {
    batch.updates.push_back(UpdateRecord{rid, 0, value});
  }
  batch.deletes = b.deletes;
  std::optional<TraceSink> sink;
  if (traced) sink.emplace(RealClock::Get(), "apply_batch");
  const auto t0 = SteadyClock::now();
  const Status st =
      s->writable->ApplyBatch(std::move(batch), traced ? &*sink : nullptr);
  const double elapsed = Since(t0);
  ++attempted_;
  if (!st.ok()) {
    ++failed_;
    Fail("in-process write batch failed: " + st.ToString());
    return false;
  }
  ApplyToMirror(b, mirror_.get());
  if (traced) {
    ++l->batches;
    l->apply_batch_s += elapsed;
    l->wal_append_ns += static_cast<double>(SpanNanos(sink->Finish(),
                                                      "wal_append"));
  }
  return true;
}

void Bench::MaybeCompact(Stack* s, bool in_process, bool traced, Ledger* l) {
  // The benchmark's own model of the trigger, kept apart from the
  // program's PendingDeltaOps(), so a drifted counter shows as a wrong
  // compaction count at the end of the run.
  pending_sim_ += batches_[next_batch_ - 1].ops();
  if (pending_sim_ >= compact_after_ops_) {
    ++expected_compactions_;
    pending_sim_ = 0;
  }
  if (s->writable->PendingDeltaOps() < compact_after_ops_) return;
  std::optional<TraceSink> sink;
  if (traced) sink.emplace(RealClock::Get(), "compact_call");
  const auto t0 = SteadyClock::now();
  const Status st = in_process ? s->writable->Compact(traced ? &*sink : nullptr)
                               : s->service->CompactNow();
  const double elapsed = Since(t0);
  Expect(st.ok(), "compaction failed: " + st.ToString());
  if (traced) {
    const TraceSpan t = sink->Finish();
    ++l->compactions;
    l->compact_s += elapsed;
    l->fold_ns += static_cast<double>(SpanNanos(t, "fold"));
    l->checkpoint_ns += static_cast<double>(SpanNanos(t, "checkpoint"));
  }
}

std::vector<size_t> Bench::NextOrder() {
  std::vector<size_t> order(cycle_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), order_rng_);
  return order;
}

void Bench::TimedPhase(Stack* s) {
  for (size_t p = 0; p < passes_; ++p) {
    const auto t0 = SteadyClock::now();
    size_t ops = 0;
    for (uint32_t c = 0; c < spec_.cycles_per_pass; ++c) {
      const std::vector<size_t> order = NextOrder();
      for (size_t j = 0; j < order.size(); ++j) {
        const size_t qi = order[j];
        double lat = 0.0;
        if (TcpQuery(s, qi, spec_.count_only, &lat)) {
          query_lat_s_.push_back(lat);
          ++ops;
        }
        if (spec_.writable && j % kQueriesPerWrite == kQueriesPerWrite - 1) {
          const WriteBatch& b = batches_[next_batch_++];
          if (TcpWrite(s, b, &lat)) {
            write_lat_s_.push_back(lat);
            ++ops;
          }
          MaybeCompact(s, /*in_process=*/false, /*traced=*/false, nullptr);
        }
      }
    }
    pass_qps_.push_back(static_cast<double>(ops) / Since(t0));
  }
}

void Bench::InprocPhase(Stack* s, bool traced, Ledger* l) {
  l->overhead_by_query.resize(cycle_.size());
  for (size_t p = 0; p < inproc_passes_ * spec_.cycles_per_pass; ++p) {
    const std::vector<size_t> order = NextOrder();
    for (size_t j = 0; j < order.size(); ++j) {
      const size_t qi = order[j];
      double latency = 0.0;
      InprocQuery(s, qi, traced, l, &latency);
      if (!traced) {
        // The net layer's cost: the same query over TCP and then through
        // Submit, back to back, so the VM's drift between two phases does
        // not enter. Both find the query's bitmaps in the pool the call
        // above filled, so neither pays a miss the other does not.
        double tcp = 0.0, again = 0.0;
        if (TcpQuery(s, qi, spec_.count_only, &tcp) &&
            InprocQuery(s, qi, /*traced=*/false, nullptr, &again)) {
          l->overhead_by_query[qi].push_back(tcp - again);
        }
      }
      if (spec_.writable && j % kQueriesPerWrite == kQueriesPerWrite - 1) {
        InprocWrite(s, batches_[next_batch_++], traced, l);
        MaybeCompact(s, /*in_process=*/true, traced, l);
      }
    }
  }
}

void Bench::VerifyAfterRun(Stack* s) {
  if (spec_.writable) {
    // Fixed point: every query of the cycle as a full bitmap over TCP,
    // against a scan of the mirror as it stands after the run.
    for (size_t qi = 0; qi < cycle_.size(); ++qi) {
      double unused = 0.0;
      TcpQuery(s, qi, /*count_only=*/false, &unused);
    }
  }
  // One in-process pass: answers again, plus the per-query scan bound.
  for (size_t qi = 0; qi < cycle_.size(); ++qi) {
    double unused = 0.0;
    InprocQuery(s, qi, /*traced=*/false, nullptr, &unused);
  }
}

void Bench::VerifyRestart(Stack* s) {
  const DurabilityStats d = s->writable->durability();
  Expect(d.compactions == expected_compactions_,
         "ran " + std::to_string(d.compactions) + " compactions, expected " +
             std::to_string(expected_compactions_));
  s->StopServing();
  s->writable.reset();
  auto reopened = WritableBitmapIndex::Open(s->dir);
  if (!reopened.ok()) {
    Fail("reopen failed: " + reopened.status().ToString());
    return;
  }
  Expect(reopened.value()->LogicalValues() == mirror_->values(),
         "reopened logical column differs from the acknowledged writes");
  const Bitvector live = reopened.value()->LiveMask();
  bool live_ok = live.size() == mirror_->rows();
  for (uint64_t r = 0; live_ok && r < mirror_->rows(); ++r) {
    live_ok = live.Get(r) == mirror_->IsLive(r);
  }
  Expect(live_ok, "reopened live mask differs from the acknowledged deletes");
}

void Bench::StoreThroughput(const BitmapStore& store, double* crc_gbps,
                            double* decode_gbps, uint64_t* roaring,
                            uint64_t* verbatim) {
  uint64_t stored = 0;
  store.ForEachBlob([&](const BitmapKey&, const BitmapStore::Blob& b) {
    stored += b.bytes.size();
    if (b.codec == CodecId::kRoaring) ++*roaring;
    if (b.codec == CodecId::kVerbatim) ++*verbatim;
  });
  // A fixed amount of work: about 256 MB of stored bytes per measurement.
  const uint64_t reps = std::max<uint64_t>(1, (256ull << 20) / std::max<uint64_t>(stored, 1));
  // Each result is checked, which also keeps the work from being elided.
  uint64_t bad = 0;
  const auto c0 = SteadyClock::now();
  for (uint64_t i = 0; i < reps; ++i) {
    store.ForEachBlob([&](const BitmapKey&, const BitmapStore::Blob& b) {
      if (Crc32c(b.bytes.data(), b.bytes.size()) != b.crc32c && b.crc_valid) {
        ++bad;
      }
    });
  }
  *crc_gbps = static_cast<double>(stored * reps) / Since(c0) / 1e9;
  uint64_t decoded = 0;
  const auto d0 = SteadyClock::now();
  for (uint64_t i = 0; i < reps; ++i) {
    store.ForEachBlob([&](const BitmapKey&, const BitmapStore::Blob& b) {
      if (!GetCodec(b.codec).Decode(b.bytes, b.bit_count).ok()) ++bad;
      decoded += b.bit_count / 8;
    });
  }
  *decode_gbps = static_cast<double>(decoded) / Since(d0) / 1e9;
  Expect(bad == 0, "a stored blob failed its CRC or decode");
}

void PrintMetrics(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<std::pair<std::string,
                                              std::pair<double, std::string>>>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].second.first) ? m[i].second.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), v,
                m[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Bench::Main() {
  std::printf("env: {\"nproc\": %u, \"kernel_tier\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"rows\": %llu}\n",
              std::thread::hardware_concurrency(),
              kernels::TierName(kernels::ActiveTier()), BIX_E2E_BUILD_TYPE,
              BIX_E2E_COMPILER, spec_.name.c_str(),
              static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(spec_.rows));

  // Inputs and oracle (not part of set-up time).
  column_ = MakeZipfColumn(spec_.rows, kCardinality, args_.seed);
  cycle_ = MakeQueryCycle(kCardinality, args_.seed + 1, spec_.queries_per_set);
  const size_t queries_per_pass = cycle_.size() * spec_.cycles_per_pass;
  const size_t min_passes =
      (kMinTimedQueries + queries_per_pass - 1) / queries_per_pass;
  passes_ = args_.small
                ? 2
                : std::max<size_t>(min_passes,
                                   static_cast<size_t>(std::llround(
                                       args_.seconds * spec_.passes_per_second)));
  inproc_passes_ = args_.trace ? std::max<size_t>(1, passes_ / 4) : 0;
  if (spec_.writable) {
    mirror_ = std::make_unique<Mirror>(column_);
    const size_t per_pass = queries_per_pass / kQueriesPerWrite;
    batches_ = MakeWriteBatches(column_, args_.seed + 2,
                                per_pass * (passes_ + 2 * inproc_passes_),
                                spec_.mix);
    compact_after_ops_ = per_pass * spec_.mix.ops();
  } else {
    oracle_ = ScanOracle(column_, cycle_, /*digests=*/!spec_.count_only);
  }

  // Set-up, repeated; the last stack serves the run.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Stack> owned;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (owned != nullptr) {
      const std::string old_dir = owned->dir;
      owned.reset();
      if (!old_dir.empty()) std::filesystem::remove_all(old_dir);
    }
    owned = std::make_unique<Stack>();
    Status st = BuildStack(rep, owned.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(owned->setup_s);
    build_s.push_back(owned->build_s);
  }
  Stack& stack = *owned;

  const uint64_t ops_before = attempted_;
  const double cpu_before = ProcessCpuSeconds();
  TimedPhase(&stack);
  const double cpu_ms_per_op = (ProcessCpuSeconds() - cpu_before) * 1e3 /
                               static_cast<double>(attempted_ - ops_before);

  Ledger ledger;
  if (args_.trace) {
    InprocPhase(&stack, /*traced=*/false, &ledger);
    InprocPhase(&stack, /*traced=*/true, &ledger);
  }
  VerifyAfterRun(&stack);

  const std::shared_ptr<const BitmapIndex> base = stack.Base();
  const double bytes_per_row = static_cast<double>(base->TotalStoredBytes()) /
                               static_cast<double>(base->row_count());
  const uint64_t bitmaps = base->BitmapCount();
  double crc_gbps = 0, decode_gbps = 0;
  uint64_t n_roaring = 0, n_verbatim = 0;
  if (args_.trace) {
    StoreThroughput(base->store(), &crc_gbps, &decode_gbps, &n_roaring,
                    &n_verbatim);
  }
  DurabilityStats durability;
  uint64_t checkpoint_bytes = 0;
  if (spec_.writable) {
    durability = stack.writable->durability();
    for (const auto& f : std::filesystem::directory_iterator(stack.dir)) {
      const std::string n = f.path().filename().string();
      if (n.rfind("index-", 0) == 0 || n.rfind("state-", 0) == 0) {
        checkpoint_bytes += f.file_size();
      }
    }
    VerifyRestart(&stack);
  }
  stack.StopServing();
  if (!stack.dir.empty()) std::filesystem::remove_all(stack.dir);

  using Metric = std::pair<std::string, std::pair<double, std::string>>;
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  if (!args_.trace) {
    add("setup_s", Median(setup_s), "s");
    add("qps", Median(pass_qps_), "1/s");
    // The median latency of each kind of operation the workload issues,
    // summed: the query median, plus on mixed_write the write-batch median.
    // A write batch is one op in five there, so in a median over all ops a
    // doubled write latency moved the figure by about 16%, inside the
    // bound; in the sum it moves it by about a third.
    add("p50_ms",
        (Quantile(query_lat_s_, 0.50) + Quantile(write_lat_s_, 0.50)) * 1e3,
        "ms");
    add("p99_ms", Quantile(query_lat_s_, 0.99) * 1e3, "ms");
    add("cpu_ms_per_op", cpu_ms_per_op, "ms");
    add("index_bytes_per_row", bytes_per_row, "B");
    add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const Ledger& l = ledger;
    const double nq = static_cast<double>(std::max<uint64_t>(l.queries, 1));
    const double tcp_mean_ms = Mean(query_lat_s_) * 1e3;
    // Net overhead per query of the cycle: the median of its paired
    // TCP-minus-in-process samples (robust to the run's episodic stalls),
    // averaged over the cycle.
    double overhead_ms = 0.0;
    for (size_t qi = 0; qi < cycle_.size(); ++qi) {
      overhead_ms += Median(l.overhead_by_query[qi]) * 1e3;
    }
    overhead_ms /= static_cast<double>(cycle_.size());
    const double per_q = 1e-6 / nq;  // ns totals -> ms per query
    const double nr = static_cast<double>(std::max<uint64_t>(l.responses, 1));
    const double nb = static_cast<double>(std::max<uint64_t>(l.batches, 1));
    const double nc = static_cast<double>(std::max<uint64_t>(l.compactions, 1));
    const uint64_t write_ops_total = [&] {
      uint64_t n = 0;
      for (size_t i = 0; i < next_batch_; ++i) n += batches_[i].ops();
      return n;
    }();
    add("net.overhead_ms", overhead_ms, "ms");
    add("net.response_bytes", l.response_bytes / nr, "B");
    add("net.server_encode_ms", l.encode_s * 1e3 / nr, "ms");
    add("net.client_decode_ms", l.decode_s * 1e3 / nr, "ms");
    add("server.queue_ms", l.queue_ns * per_q, "ms");
    add("server.pool_hit_ratio",
        l.io.scans == 0 ? 0.0
                        : static_cast<double>(l.io.pool_hits) /
                              static_cast<double>(l.io.scans),
        "ratio");
    add("query.rewrite_ms", l.rewrite_ns * per_q, "ms");
    add("query.scans_per_query", static_cast<double>(l.io.scans) / nq, "count");
    add("storage.misses_per_query", static_cast<double>(l.io.disk_reads) / nq,
        "count");
    add("storage.bytes_read_per_query",
        static_cast<double>(l.io.bytes_read) / nq, "B");
    add("storage.materialize_ms", l.materialize_ns * per_q, "ms");
    add("storage.materialize_us_per_miss",
        l.io.disk_reads == 0 ? 0.0
                             : l.materialize_ns * 1e-3 /
                                   static_cast<double>(l.io.disk_reads),
        "us");
    add("storage.crc32c_gbps", crc_gbps, "GB/s");
    add("storage.wal_append_ms", l.wal_append_ns * 1e-6 / nb, "ms");
    add("storage.wal_bytes_per_op",
        write_ops_total == 0 ? 0.0
                             : static_cast<double>(durability.wal_bytes) /
                                   static_cast<double>(write_ops_total),
        "B");
    add("compress.decode_gbps", decode_gbps, "GB/s");
    add("compress.bitmaps_roaring", static_cast<double>(n_roaring), "count");
    add("compress.bitmaps_verbatim", static_cast<double>(n_verbatim), "count");
    add("bitvector.kernel_ms", l.kernel_ns * per_q, "ms");
    add("expr.delta_merge_ms", l.delta_merge_ns * per_q, "ms");
    add("core.apply_batch_ms", l.apply_batch_s * 1e3 / nb, "ms");
    add("core.compact_ms", l.compact_s * 1e3 / nc, "ms");
    add("core.fold_ms", l.fold_ns * 1e-6 / nc, "ms");
    add("core.checkpoint_ms", l.checkpoint_ns * 1e-6 / nc, "ms");
    add("core.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "B");
    add("core.compactions", static_cast<double>(durability.compactions),
        "count");
    add("core.write_p50_ms", Quantile(write_lat_s_, 0.50) * 1e3, "ms");
    add("index.build_s", Median(build_s), "s");
    add("index.bitmaps", static_cast<double>(bitmaps), "count");

    // Each layer's share of the mean TCP query latency, for README.md: net
    // is the measured TCP overhead; the in-process rest is split in the
    // proportions the traced spans give it (tracing inflates the spans, not
    // their proportions much). Also the tracing overhead: traced minus
    // untraced in-process p50.
    const double traced_ms = Mean(l.inproc_traced_s) * 1e3;
    const double net = overhead_ms / tcp_mean_ms;
    const double scale = (1.0 - net) / traced_ms;
    const double layers[] = {l.queue_ns * per_q, l.rewrite_ns * per_q,
                             l.materialize_ns * per_q, l.kernel_ns * per_q,
                             l.delta_merge_ns * per_q};
    double rest = 1.0 - net;
    for (double ms : layers) rest -= ms * scale;
    std::printf("shares: {\"tcp_mean_ms\": %.4f, \"net\": %.3f, "
                "\"queue\": %.3f, \"rewrite\": %.3f, \"materialize\": %.3f, "
                "\"kernel\": %.3f, \"delta_merge\": %.3f, \"other\": %.3f, "
                "\"inproc_p50_ms\": %.4f, \"traced_p50_ms\": %.4f}\n",
                tcp_mean_ms, net, layers[0] * scale, layers[1] * scale,
                layers[2] * scale, layers[3] * scale, layers[4] * scale, rest,
                Quantile(l.inproc_untraced_s, 0.5) * 1e3,
                Quantile(l.inproc_traced_s, 0.5) * 1e3);
  }
  PrintMetrics(correct_, attempted_, failed_, m);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace bix

int main(int argc, char** argv) {
  bix::e2e::Args args;
  bix::e2e::Spec spec;
  if (!bix::e2e::ParseArgs(argc, argv, &args) ||
      !bix::e2e::MakeSpec(args.workload, args.small, &spec)) {
    std::fprintf(stderr,
                 "usage: bix_e2e --workload paper_miss|hot_count|mixed_write "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--scale full|small]\n");
    return 2;
  }
  return bix::e2e::Bench(std::move(spec), std::move(args)).Main();
}
