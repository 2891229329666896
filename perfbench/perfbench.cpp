// perfbench — closed-loop transfer/audit benchmark over mvtl's public API.
//
// Every workload runs the same two transaction kinds over "families" of
// integer-valued keys whose sum is fixed:
//   * transfer (read-write): in each of two families, read two keys and
//     move one unit between them, and increment the family's counter key;
//   * audit (read-only): read every key of two families and check that
//     each family still sums to its preloaded total.
// A run is a sequence of rounds. Each round opens a fresh store, preloads
// it (timed as set-up), lets `clients` closed-loop threads run a fixed
// number of transactions each, then audits every family and checks each
// counter against the transfers the clients saw acknowledged. Rounds
// repeat until the run's time budget is spent, so every run does whole
// rounds of identical work.
//
// With --trace 0 the program times whole transactions only and prints the
// end-to-end metrics. With --trace 1 it alternates untraced and traced
// rounds: traced rounds time every call into the library (begin, read,
// write, commit, abort, backoff) as spans kept in memory and written out
// at the end; the program's own counters (Db::stats, the cluster's merged
// metrics registry) are read around the measured phase of the untraced
// rounds. It then prints the per-layer metrics.
//
// The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "mvtl.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mvtl;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Inputs: seeded RNG, Zipf over families, key layout.
// ---------------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL);
  return splitmix64(s);
}

/// Zipf(theta) over ranks 0..n-1, mapped to families through a seeded
/// permutation so the hot families are spread over the key range (and so
/// over the cluster's range shards).
class FamilyPicker {
 public:
  FamilyPicker(std::size_t families, double theta, std::uint64_t seed)
      : cdf_(families), family_of_rank_(families) {
    double total = 0;
    for (std::size_t r = 0; r < families; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t i = 0; i < families; ++i) family_of_rank_[i] = i;
    Rng rng(mix_seed(seed, 0xFA31, 0));
    for (std::size_t i = families; i > 1; --i) {
      std::swap(family_of_rank_[i - 1], family_of_rank_[rng.below(i)]);
    }
  }
  std::size_t pick(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return family_of_rank_[rank];
  }
  /// Two distinct families.
  std::pair<std::size_t, std::size_t> pick_two(Rng& rng) const {
    const std::size_t a = pick(rng);
    std::size_t b = pick(rng);
    while (b == a) b = pick(rng);
    return {a, b};
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> family_of_rank_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Deploy { kEmbedded, kClusterTcp, kReplicatedSim };

struct WorkloadSpec {
  std::string name;
  Deploy deploy = Deploy::kEmbedded;
  std::size_t families = 0;
  std::size_t family_size = 8;    ///< summed keys per family (+1 counter)
  double zipf_theta = 0.0;
  std::size_t clients = 4;        ///< closed-loop client threads
  std::size_t tx_per_client = 0;  ///< per round
  double audit_share = 0.2;
  bool declare_audits_read_only = false;
  /// Embedded only: purge_below every `gc_period`, `gc_lag_ticks` behind
  /// the store clock.
  std::chrono::milliseconds gc_period{0};
  std::uint64_t gc_lag_ticks = 0;
  std::size_t groups = 0;
  std::size_t replication_factor = 1;
};

constexpr std::int64_t kInitialValue = 100;
constexpr std::size_t kFamiliesPerTx = 2;  ///< transfers and audits alike
constexpr std::size_t kPreloadFamiliesPerTx = 8;

std::optional<WorkloadSpec> workload_by_name(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "embedded-hot") {
    w.deploy = Deploy::kEmbedded;
    w.families = 32;
    w.zipf_theta = 0.8;
    w.tx_per_client = 25'000;
    w.gc_period = std::chrono::milliseconds{10};
    w.gc_lag_ticks = 20'000;
    return w;
  }
  if (name == "cluster-tcp") {
    w.deploy = Deploy::kClusterTcp;
    w.families = 256;
    w.zipf_theta = 0.5;
    w.tx_per_client = 1'000;
    w.groups = 4;
    return w;
  }
  if (name == "replicated-sim") {
    w.deploy = Deploy::kReplicatedSim;
    w.families = 256;
    w.zipf_theta = 0.5;
    w.tx_per_client = 600;
    w.declare_audits_read_only = true;
    w.groups = 2;
    w.replication_factor = 3;
    return w;
  }
  return std::nullopt;
}

/// Key layout: family f owns indices [f(S+1), f(S+1)+S); index f(S+1)+S
/// is its commit counter. Keys use the cluster's canonical "k%010u" form
/// so range sharding splits them evenly.
struct Layout {
  std::size_t families;
  std::size_t size;

  std::uint64_t key_space() const { return families * (size + 1); }
  Key key(std::size_t family, std::size_t slot) const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%010llu",
                  static_cast<unsigned long long>(family * (size + 1) + slot));
    return Key(buf);
  }
  Key counter(std::size_t family) const { return key(family, size); }
  std::int64_t family_total() const {
    return static_cast<std::int64_t>(size) * kInitialValue;
  }
};

Db open_store(const WorkloadSpec& w, const Layout& layout, bool traced) {
  const Policy mvtil_early = Policy::mvtil(5'000, Early::kYes);
  if (w.deploy == Deploy::kEmbedded) {
    return Options().policy(mvtil_early).open();
  }
  ClusterConfig config;  // timing settings stay at their defaults
  config.servers = w.groups;
  config.replication_factor = w.replication_factor;
  config.transport = w.deploy == Deploy::kClusterTcp ? TransportKind::kTcp
                                                      : TransportKind::kSim;
  config.key_space = layout.key_space();
  config.trace_sample_every = traced ? 1 : 0;
  return Options()
      .policy(Policy::distributed(DistProtocol::kMvtilEarly, config))
      .open();
}

Cluster* cluster_of(Db& db) {
  auto* store = dynamic_cast<ClusterStore*>(&db.spi());
  return store == nullptr ? nullptr : &store->cluster();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Spans (traced rounds only).
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kTxn,  ///< first begin → acknowledged commit (or final failure)
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  kBackoff,
};
constexpr const char* kSpanNames[] = {"txn",    "begin", "read",   "write",
                                      "commit", "abort", "backoff"};
constexpr std::size_t kSpanKinds = 7;

/// One timed call into the library. Spans of one client transaction share
/// `txn`; `attempt` (1-based, 0 for the kTxn span) names the parent
/// attempt; `engine_tx` is the library's id for that attempt — in a
/// cluster, the global transaction id the servers trace under.
struct Span {
  std::uint64_t txn = 0;
  std::uint64_t engine_tx = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kTxn;
  std::uint16_t attempt = 0;
};

constexpr std::uint64_t kDumpedTxnsPerClient = 200;
constexpr int kTxnSeqBits = 40;  ///< txn id = client << 40 | sequence

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Per-client span sink; a null recorder means "untraced" and every call
/// is a plain pass-through.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* out) : out_(out) {}

  template <typename F>
  auto timed(SpanKind kind, std::uint64_t txn, std::uint16_t attempt,
             std::uint64_t engine_tx, F&& call) {
    if (out_ == nullptr) return call();
    const std::int64_t start = now_ns();
    auto result = call();
    out_->push_back(Span{txn, engine_tx, start, now_ns(), kind, attempt});
    return result;
  }
  void add(SpanKind kind, std::uint64_t txn, std::uint16_t attempt,
           std::uint64_t engine_tx, std::int64_t start, std::int64_t end) {
    if (out_ != nullptr) {
      out_->push_back(Span{txn, engine_tx, start, end, kind, attempt});
    }
  }

 private:
  std::vector<Span>* out_;
};

// ---------------------------------------------------------------------------
// Client: one closed-loop thread.
// ---------------------------------------------------------------------------

struct ClientStats {
  std::vector<double> rw_us;  ///< per acknowledged transfer
  std::vector<double> ro_us;  ///< per acknowledged audit
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t backoff_ns = 0;
  std::uint64_t aborts[kAbortReasonCount] = {};
  std::vector<std::uint64_t> acked_transfers;  ///< per family
  std::vector<std::string> violations;
  std::vector<Span> spans;
};

/// Runs `body` to an acknowledged commit, restarting on retryable errors
/// with the jittered exponential backoff of the library's default
/// RetryPolicy. Returns true iff the transaction committed.
template <typename Body>
bool run_transaction(Db& db, const TxOptions& options, Rng& rng,
                     Tracer& tracer, std::uint64_t txn, ClientStats& stats,
                     Body&& body) {
  const RetryPolicy retry;
  for (std::size_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    const auto att = static_cast<std::uint16_t>(attempt);
    if (attempt > 1) {
      auto base = retry.initial_backoff.count();
      for (std::size_t i = 2; i < attempt && base < retry.max_backoff.count();
           ++i) {
        base = std::min<decltype(base)>(base * 2, retry.max_backoff.count());
      }
      const auto sleep_us =
          base / 2 + static_cast<decltype(base)>(
                         rng.below(static_cast<std::uint64_t>(base) + 1));
      const std::int64_t start = now_ns();
      std::this_thread::sleep_for(std::chrono::microseconds{sleep_us});
      const std::int64_t end = now_ns();
      stats.backoff_ns += static_cast<std::uint64_t>(end - start);
      tracer.add(SpanKind::kBackoff, txn, att, 0, start, end);
    }
    ++stats.attempts;
    Transaction tx =
        tracer.timed(SpanKind::kBegin, txn, att, 0,
                     [&] { return db.begin(options); });
    const std::uint64_t id = tx.id();
    Result<void> outcome = body(tx, att, id);
    if (outcome.ok()) {
      Result<Timestamp> c = tracer.timed(SpanKind::kCommit, txn, att, id,
                                         [&] { return tx.commit(); });
      if (c.ok()) return true;
      outcome = c.error();
    } else {
      tracer.timed(SpanKind::kAbort, txn, att, id, [&] {
        tx.abort();
        return 0;
      });
    }
    ++stats.aborts[static_cast<std::size_t>(outcome.error().reason())];
    if (!outcome.error().retryable()) return false;
  }
  return false;
}

std::optional<std::int64_t> parse_value(const std::optional<Value>& v) {
  if (!v) return std::nullopt;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc() || ptr != v->data() + v->size()) return std::nullopt;
  return out;
}

struct ReadCtx {
  Transaction& tx;
  Tracer& tracer;
  std::uint64_t txn;
  std::uint16_t attempt;
  std::uint64_t id;
  std::string* bad_value;  ///< set when a key is missing or unparsable

  Result<std::int64_t> read(const Key& key) {
    Result<std::optional<Value>> r = tracer.timed(
        SpanKind::kRead, txn, attempt, id, [&] { return tx.get(key); });
    if (!r.ok()) return r.error();
    const std::optional<std::int64_t> v = parse_value(r.value());
    if (!v) {
      *bad_value = key;
      return TxError::user_abort();
    }
    return *v;
  }
  Result<void> write(const Key& key, std::int64_t value) {
    return tracer.timed(SpanKind::kWrite, txn, attempt, id, [&] {
      return tx.put(key, std::to_string(value));
    });
  }
};

struct RoundInputs {
  const WorkloadSpec* spec;
  const Layout* layout;
  const FamilyPicker* picker;
  std::uint64_t seed;
  std::uint64_t round;
  bool traced;
};

void client_loop(Db& db, const RoundInputs& in, std::size_t client,
                 ClientStats& stats) {
  const WorkloadSpec& w = *in.spec;
  const Layout& layout = *in.layout;
  Rng inputs(mix_seed(in.seed, in.round + 1, client + 1));
  Rng backoff(mix_seed(in.seed, in.round + 1, client + 0x100));
  Tracer tracer(in.traced ? &stats.spans : nullptr);
  stats.acked_transfers.assign(layout.families, 0);

  TxOptions rw_options;
  rw_options.process = static_cast<ProcessId>(client + 1);
  TxOptions ro_options = rw_options;
  ro_options.read_only = w.declare_audits_read_only;

  for (std::size_t i = 0; i < w.tx_per_client; ++i) {
    const std::uint64_t txn =
        (static_cast<std::uint64_t>(client) << kTxnSeqBits) | i;
    const bool audit = inputs.unit() < w.audit_share;
    const auto [fa, fb] = in.picker->pick_two(inputs);
    const std::size_t families[kFamiliesPerTx] = {fa, fb};
    std::size_t from[kFamiliesPerTx] = {};
    std::size_t to[kFamiliesPerTx] = {};
    for (std::size_t k = 0; k < kFamiliesPerTx; ++k) {
      from[k] = inputs.below(layout.size);
      to[k] = (from[k] + 1 + inputs.below(layout.size - 1)) % layout.size;
    }
    ++stats.attempted;
    std::string bad_value;
    std::int64_t sums[kFamiliesPerTx] = {};
    const std::int64_t start = now_ns();
    bool ok = false;
    if (audit) {
      ok = run_transaction(
          db, ro_options, backoff, tracer, txn, stats,
          [&](Transaction& tx, std::uint16_t att, std::uint64_t id)
              -> Result<void> {
            ReadCtx ctx{tx, tracer, txn, att, id, &bad_value};
            for (std::size_t k = 0; k < kFamiliesPerTx; ++k) {
              sums[k] = 0;
              for (std::size_t s = 0; s < layout.size; ++s) {
                Result<std::int64_t> v = ctx.read(layout.key(families[k], s));
                if (!v.ok()) return v.error();
                sums[k] += v.value();
              }
            }
            return {};
          });
    } else {
      ok = run_transaction(
          db, rw_options, backoff, tracer, txn, stats,
          [&](Transaction& tx, std::uint16_t att, std::uint64_t id)
              -> Result<void> {
            ReadCtx ctx{tx, tracer, txn, att, id, &bad_value};
            for (std::size_t k = 0; k < kFamiliesPerTx; ++k) {
              const Key a = layout.key(families[k], from[k]);
              const Key b = layout.key(families[k], to[k]);
              const Key c = layout.counter(families[k]);
              Result<std::int64_t> va = ctx.read(a);
              if (!va.ok()) return va.error();
              Result<std::int64_t> vb = ctx.read(b);
              if (!vb.ok()) return vb.error();
              Result<std::int64_t> vc = ctx.read(c);
              if (!vc.ok()) return vc.error();
              if (Result<void> r = ctx.write(a, va.value() - 1); !r.ok()) {
                return r;
              }
              if (Result<void> r = ctx.write(b, vb.value() + 1); !r.ok()) {
                return r;
              }
              if (Result<void> r = ctx.write(c, vc.value() + 1); !r.ok()) {
                return r;
              }
            }
            return {};
          });
    }
    const std::int64_t end = now_ns();
    tracer.add(SpanKind::kTxn, txn, 0, 0, start, end);
    if (!bad_value.empty()) {
      stats.violations.push_back("read_value: key " + bad_value +
                                 " missing or not an integer");
    }
    if (!ok) {
      ++stats.failed;
      continue;
    }
    ++stats.committed;
    const double us = static_cast<double>(end - start) / 1e3;
    if (audit) {
      stats.ro_us.push_back(us);
      for (std::size_t k = 0; k < kFamiliesPerTx; ++k) {
        if (sums[k] != layout.family_total()) {
          stats.violations.push_back(
              "audit_sum: family " + std::to_string(families[k]) + " sums to " +
              std::to_string(sums[k]) + ", expected " +
              std::to_string(layout.family_total()));
        }
      }
    } else {
      stats.rw_us.push_back(us);
      for (std::size_t f : families) ++stats.acked_transfers[f];
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up and the final audit: whole-family transactions spread over the
// client threads, with a generous retry budget (they run alone).
// ---------------------------------------------------------------------------

template <typename PerChunk>
bool for_family_chunks(const WorkloadSpec& w, const Layout& layout,
                       PerChunk&& per_chunk) {
  std::atomic<bool> all_ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t first = c * kPreloadFamiliesPerTx;
           first < layout.families;
           first += w.clients * kPreloadFamiliesPerTx) {
        const std::size_t last =
            std::min(layout.families, first + kPreloadFamiliesPerTx);
        if (!per_chunk(c, first, last)) all_ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  return all_ok;
}

bool run_maintenance(Db& db, std::size_t client, bool read_only,
                     const std::function<Result<void>(Transaction&)>& body) {
  TxOptions options;
  options.process = static_cast<ProcessId>(client + 1);
  options.read_only = read_only;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Transaction tx = db.begin(options);
    Result<void> r = body(tx);
    if (r.ok()) {
      Result<Timestamp> c = tx.commit();
      if (c.ok()) return true;
      r = c.error();
    }
    if (!r.error().retryable()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return false;
}

bool preload(Db& db, const WorkloadSpec& w, const Layout& layout) {
  return for_family_chunks(w, layout, [&](std::size_t c, std::size_t first,
                                          std::size_t last) {
    return run_maintenance(db, c, false, [&](Transaction& tx) -> Result<void> {
      for (std::size_t f = first; f < last; ++f) {
        for (std::size_t s = 0; s < layout.size; ++s) {
          if (Result<void> r =
                  tx.put(layout.key(f, s), std::to_string(kInitialValue));
              !r.ok()) {
            return r;
          }
        }
        if (Result<void> r = tx.put(layout.counter(f), "0"); !r.ok()) return r;
      }
      return {};
    });
  });
}

/// Declared-read-only transactions read at a replica's closed timestamp,
/// which trails the newest commits. Set-up ends once such reads see every
/// family's counter (written in the same transaction as the family's
/// keys) in three passes running, each pass spreading its transactions
/// over the replicas.
bool wait_for_snapshot_reads(Db& db, const WorkloadSpec& w,
                             const Layout& layout) {
  for (int pass = 0; pass < 3; ++pass) {
    const bool ok = for_family_chunks(w, layout, [&](std::size_t c,
                                                     std::size_t first,
                                                     std::size_t last) {
      return run_maintenance(db, c, true, [&](Transaction& tx) -> Result<void> {
        for (std::size_t f = first; f < last; ++f) {
          Result<std::optional<Value>> r = tx.get(layout.counter(f));
          if (!r.ok()) return r.error();
          if (!r.value()) return TxError::from_reason(AbortReason::kReplicaBehind);
        }
        return {};
      });
    });
    if (!ok) return false;
  }
  return true;
}

/// Reads every family's keys and counter; fills `sums` and `counters`.
bool final_audit(Db& db, const WorkloadSpec& w, const Layout& layout,
                 std::vector<std::optional<std::int64_t>>& sums,
                 std::vector<std::optional<std::int64_t>>& counters) {
  sums.assign(layout.families, std::nullopt);
  counters.assign(layout.families, std::nullopt);
  return for_family_chunks(w, layout, [&](std::size_t c, std::size_t first,
                                          std::size_t last) {
    return run_maintenance(db, c, false, [&](Transaction& tx) -> Result<void> {
      for (std::size_t f = first; f < last; ++f) {
        std::optional<std::int64_t> sum = 0;
        for (std::size_t s = 0; s <= layout.size; ++s) {
          Result<std::optional<Value>> r = tx.get(layout.key(f, s));
          if (!r.ok()) return r.error();
          const std::optional<std::int64_t> v = parse_value(r.value());
          if (s == layout.size) {
            counters[f] = v;
          } else if (!v) {
            sum.reset();
          } else if (sum) {
            *sum += *v;
          }
        }
        sums[f] = sum;
      }
      return {};
    });
  });
}

// ---------------------------------------------------------------------------
// Counter/histogram deltas from the program's own instruments.
// ---------------------------------------------------------------------------

obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& after,
                                  const obs::HistogramSnapshot& before) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const auto& [b, n] : after.buckets) counts[b] += n;
  for (const auto& [b, n] : before.buckets) counts[b] -= n;
  obs::HistogramSnapshot out;
  out.count = after.count - before.count;
  out.sum = after.sum - before.sum;
  for (const auto& [b, n] : counts) {
    if (n != 0) out.buckets.emplace_back(b, n);
  }
  return out;
}

struct ProgramCounters {
  StoreStats stats;
  obs::MetricsSnapshot metrics;  ///< merged over servers (clusters only)

  static ProgramCounters read(Db& db) {
    ProgramCounters c;
    c.stats = db.stats();
    if (Cluster* cluster = cluster_of(db)) c.metrics = cluster->merged_metrics();
    return c;
  }
  std::uint64_t counter(const std::string& name) const {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  }
  std::int64_t gauge(const std::string& name) const {
    const auto it = metrics.gauges.find(name);
    return it == metrics.gauges.end() ? 0 : it->second;
  }
  obs::HistogramSnapshot histogram(const std::string& name) const {
    const auto it = metrics.histograms.find(name);
    return it == metrics.histograms.end() ? obs::HistogramSnapshot{}
                                          : it->second;
  }
};

// ---------------------------------------------------------------------------
// One round.
// ---------------------------------------------------------------------------

struct GcSamples {
  std::vector<double> purge_us;
  std::vector<double> purged;
};

/// Calls Db::purge_below every `period`, `lag` ticks behind the store
/// clock, timing each call.
class PurgeTicker {
 public:
  PurgeTicker(Db& db, std::chrono::milliseconds period, std::uint64_t lag,
           GcSamples& out)
      : thread_([this, &db, period, lag, &out] {
          std::unique_lock lock(mu_);
          while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
            const std::uint64_t now = db.clock()->now(0);
            const Timestamp horizon =
                Timestamp::make(now > lag ? now - lag : 0, 0);
            const auto start = Clock::now();
            const std::size_t purged = db.purge_below(horizon);
            out.purge_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - start)
                    .count());
            out.purged.push_back(static_cast<double>(purged));
          }
        }) {}
  ~PurgeTicker() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  PurgeTicker(const PurgeTicker&) = delete;
  PurgeTicker& operator=(const PurgeTicker&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// What a traced round's spans come to. The raw spans are dropped once
/// summarized; only the first `kDumpedTxnsPerClient` transactions of each
/// client are kept, to be written out when the run ends.
struct SpanSummary {
  double p50_us[kSpanKinds] = {};
  double p99_us[kSpanKinds] = {};
  double txn_ns = 0;      ///< summed kTxn span time
  double covered_ns = 0;  ///< summed time of the library-call spans
  std::vector<Span> sample;
  std::vector<obs::SpanEvent> server_spans;
};

/// A round's transaction latencies, first begin to acknowledged commit.
struct RoundLatency {
  double rw_p50_us = 0, rw_p90_us = 0, rw_p99_us = 0;
  double ro_p50_us = 0, ro_p90_us = 0, ro_p99_us = 0;
};

struct RoundResult {
  double setup_s = 0;
  double phase_s = 0;
  RoundLatency latency;
  std::vector<ClientStats> clients;
  ProgramCounters before, after;
  GcSamples gc;
  std::optional<SpanSummary> spans;  ///< traced rounds only
  std::vector<std::string> violations;

  std::uint64_t committed() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.committed;
    return n;
  }
};

SpanSummary summarize_spans(std::vector<ClientStats>& clients) {
  SpanSummary out;
  std::vector<double> by_kind[kSpanKinds];
  for (auto& c : clients) {
    for (const Span& s : c.spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      by_kind[static_cast<std::size_t>(s.kind)].push_back(dur / 1e3);
      if (s.kind == SpanKind::kTxn) {
        out.txn_ns += dur;
      } else {
        out.covered_ns += dur;
      }
      const std::uint64_t seq = s.txn & ((std::uint64_t{1} << kTxnSeqBits) - 1);
      if (seq < kDumpedTxnsPerClient) out.sample.push_back(s);
    }
    std::vector<Span>().swap(c.spans);
  }
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    out.p50_us[k] = quantile(by_kind[k], 0.5);
    out.p99_us[k] = quantile(by_kind[k], 0.99);
  }
  return out;
}

RoundResult run_round(const WorkloadSpec& w, const Layout& layout,
                      const FamilyPicker& picker, std::uint64_t seed,
                      std::uint64_t round, bool traced, bool read_counters) {
  RoundResult out;
  const auto setup_start = Clock::now();
  Db db = open_store(w, layout, traced);
  if (!preload(db, w, layout)) {
    out.violations.push_back("setup: preload did not commit");
    return out;
  }
  if (w.declare_audits_read_only && !wait_for_snapshot_reads(db, w, layout)) {
    out.violations.push_back("setup: snapshot reads never saw the preload");
    return out;
  }
  out.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();

  out.clients.resize(w.clients);
  if (traced) {
    for (auto& c : out.clients) c.spans.reserve(w.tx_per_client * 24);
  }
  if (read_counters) out.before = ProgramCounters::read(db);
  const RoundInputs inputs{&w, &layout, &picker, seed, round, traced};
  const auto phase_start = Clock::now();
  {
    std::optional<PurgeTicker> gc;
    if (w.gc_period.count() > 0) {
      gc.emplace(db, w.gc_period, w.gc_lag_ticks, out.gc);
    }
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < w.clients; ++c) {
      threads.emplace_back(
          [&, c] { client_loop(db, inputs, c, out.clients[c]); });
    }
    for (auto& t : threads) t.join();
  }
  out.phase_s =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  if (read_counters) out.after = ProgramCounters::read(db);
  {
    std::vector<double> rw, ro;
    for (auto& c : out.clients) {
      rw.insert(rw.end(), c.rw_us.begin(), c.rw_us.end());
      ro.insert(ro.end(), c.ro_us.begin(), c.ro_us.end());
      std::vector<double>().swap(c.rw_us);
      std::vector<double>().swap(c.ro_us);
    }
    out.latency = {quantile(rw, 0.5), quantile(rw, 0.9), quantile(rw, 0.99),
                   quantile(ro, 0.5), quantile(ro, 0.9), quantile(ro, 0.99)};
  }

  // Checks computed by the benchmark, apart from the program.
  std::vector<std::uint64_t> acked(layout.families, 0);
  for (auto& c : out.clients) {
    for (auto& v : c.violations) out.violations.push_back(std::move(v));
    for (std::size_t f = 0; f < layout.families; ++f) {
      acked[f] += c.acked_transfers[f];
    }
  }
  std::vector<std::optional<std::int64_t>> sums, counters;
  if (!final_audit(db, w, layout, sums, counters)) {
    out.violations.push_back("final_sum: final audit did not commit");
  } else {
    for (std::size_t f = 0; f < layout.families; ++f) {
      if (sums[f] != layout.family_total()) {
        out.violations.push_back(
            "final_sum: family " + std::to_string(f) + " sums to " +
            (sums[f] ? std::to_string(*sums[f]) : "<missing key>") +
            ", expected " + std::to_string(layout.family_total()));
      }
      if (counters[f] != static_cast<std::int64_t>(acked[f])) {
        out.violations.push_back(
            "counter_tally: family " + std::to_string(f) + " counter is " +
            (counters[f] ? std::to_string(*counters[f]) : "<missing>") +
            ", clients acknowledged " + std::to_string(acked[f]) +
            " transfers");
      }
    }
  }
  if (traced) {
    out.spans = summarize_spans(out.clients);
    if (Cluster* cluster = cluster_of(db)) {
      out.spans->server_spans = cluster->fetch_trace(0);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // stop at the first NUL
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string cpu_list(const cpu_set_t& set) {
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last;
  }
  return out;
}

/// Restricts the calling thread — and so every thread it starts — to the
/// first CPU it may run on. Returns that CPU, or -1 on failure.
int pin_to_first_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
  }
  return -1;
}

/// nproc (CPUs this process may run on), CPU model, affinity mask and
/// build type — figures from different fingerprints are not comparable.
std::string fingerprint() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string affinity;
  int nproc = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    nproc = CPU_COUNT(&set);
    affinity = cpu_list(set);
  }
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  return std::string("{\"nproc\": ") + std::to_string(nproc) +
         ", \"cpu_model\": \"" + json_escape(cpu_model()) +
         "\", \"affinity\": \"" + affinity + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"asserts\": \"" + asserts + "\"}";
}

/// The process's peak resident set, VmHWM. Linux carries ru_maxrss over
/// execve, so under a launcher larger than the benchmark (run.py's Python
/// interpreter) ru_maxrss reports the launcher's peak; it is only the
/// fallback when /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Each figure is the median over rounds. Rounds do identical work, and
/// the median keeps bursts of interference that hit a few rounds (the
/// host taking the CPU away from the virtual machine) out of the result:
/// pooling the samples of all rounds let such bursts set the run's p99
/// (replicated-sim rw p99 7.7k-11.3k us pooled against 7.5k-7.7k as a
/// median over the same runs' rounds).
///
/// The latency tail reported here is p90, not p99. With four clients on
/// one CPU about 1% of embedded-hot transactions wait out other clients'
/// time slices (3-10 ms against a 16 us median), so its p99 sits on that
/// step and read 660-850 us from run to run. On the cluster workloads the
/// p99s followed the host's load: over sets of five runs in a busy hour
/// their spread reached 29% on replicated-sim and 88% on cluster-tcp,
/// against at most 10% for p90. The p99s are printed with the per-layer
/// metrics, taken from the untraced rounds of a traced run.
std::vector<Metric> end_to_end_metrics(const std::vector<RoundResult>& rounds,
                                       double first_round_rss_mib) {
  std::vector<double> setup, tps, rw50, rw90, ro50, ro90;
  for (const auto& r : rounds) {
    setup.push_back(r.setup_s);
    tps.push_back(ratio(static_cast<double>(r.committed()), r.phase_s));
    rw50.push_back(r.latency.rw_p50_us);
    rw90.push_back(r.latency.rw_p90_us);
    ro50.push_back(r.latency.ro_p50_us);
    ro90.push_back(r.latency.ro_p90_us);
  }
  return {
      {"setup_s", quantile(setup, 0.5), "s"},
      {"commit_tps", quantile(tps, 0.5), "tx/s"},
      {"rw_p50_us", quantile(rw50, 0.5), "us"},
      {"rw_p90_us", quantile(rw90, 0.5), "us"},
      {"ro_p50_us", quantile(ro50, 0.5), "us"},
      {"ro_p90_us", quantile(ro90, 0.5), "us"},
      {"peak_rss_mib", first_round_rss_mib, "MiB"},
  };
}

/// Per-layer metrics: spans from the traced rounds, the program's own
/// counters from the untraced ones.
std::vector<Metric> per_layer_metrics(const WorkloadSpec& w,
                                      const std::vector<RoundResult>& traced,
                                      const std::vector<RoundResult>& plain) {
  std::vector<Metric> m;
  // --- api: spans around every library call, per traced round -------
  std::vector<double> p50[kSpanKinds], p99[kSpanKinds];
  double txn_ns = 0, covered_ns = 0;
  std::uint64_t committed = 0, attempts = 0, backoff_ns = 0;
  std::uint64_t aborts[kAbortReasonCount] = {};
  for (const auto& r : traced) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      p50[k].push_back(r.spans->p50_us[k]);
      p99[k].push_back(r.spans->p99_us[k]);
    }
    txn_ns += r.spans->txn_ns;
    covered_ns += r.spans->covered_ns;
    for (const auto& c : r.clients) {
      committed += c.committed;
      attempts += c.attempts;
      backoff_ns += c.backoff_ns;
      for (std::size_t i = 0; i < kAbortReasonCount; ++i) {
        aborts[i] += c.aborts[i];
      }
    }
  }
  // Median over traced rounds of each round's percentile.
  auto span_q = [&](SpanKind k, bool tail) {
    return quantile((tail ? p99 : p50)[static_cast<std::size_t>(k)], 0.5);
  };
  const double api_read_p50 = span_q(SpanKind::kRead, false);
  m.push_back({"api.begin_p50_us", span_q(SpanKind::kBegin, false), "us"});
  m.push_back({"api.read_p50_us", api_read_p50, "us"});
  m.push_back({"api.read_p99_us", span_q(SpanKind::kRead, true), "us"});
  m.push_back({"api.write_p50_us", span_q(SpanKind::kWrite, false), "us"});
  m.push_back({"api.commit_p50_us", span_q(SpanKind::kCommit, false), "us"});
  m.push_back({"api.commit_p99_us", span_q(SpanKind::kCommit, true), "us"});
  m.push_back({"api.backoff_us_per_commit",
               ratio(static_cast<double>(backoff_ns) / 1e3,
                     static_cast<double>(committed)),
               "us"});
  m.push_back({"api.attempts_per_commit",
               ratio(static_cast<double>(attempts),
                     static_cast<double>(committed)),
               "ratio"});
  for (std::size_t i = 1; i < kAbortReasonCount; ++i) {
    m.push_back({std::string("api.aborts.") +
                     abort_reason_name(static_cast<AbortReason>(i)),
                 ratio(static_cast<double>(aborts[i]),
                       static_cast<double>(traced.size())),
                 "1/round"});
  }

  // --- whole transactions in the untraced rounds: the p99 tails the
  // end-to-end metrics leave out (see end_to_end_metrics) ---------------
  std::vector<double> rw99, ro99;
  for (const auto& r : plain) {
    rw99.push_back(r.latency.rw_p99_us);
    ro99.push_back(r.latency.ro_p99_us);
  }
  m.push_back({"api.txn_rw_p99_us", quantile(rw99, 0.5), "us"});
  m.push_back({"api.txn_ro_p99_us", quantile(ro99, 0.5), "us"});

  // --- the program's counters, over the untraced measured phases ------
  std::uint64_t plain_committed = 0, msgs = 0, ops = 0, paxos = 0, bytes = 0,
                appends = 0, follower = 0, leader_snap = 0, lock_waits = 0,
                takeovers = 0;
  std::int64_t max_backlog = 0, floor_lag = 0;
  double versions_per_key = 0, locks_per_key = 0;
  obs::HistogramSnapshot rpc[5];
  const char* rpc_names[5] = {"op_batch", "finalize", "paxos_prepare",
                              "paxos_accept", "snapshot_read"};
  obs::HistogramSnapshot chain_len;
  std::vector<double> purge_us, purged;
  for (const auto& r : plain) {
    const StoreStats& a = r.after.stats;
    const StoreStats& b = r.before.stats;
    plain_committed += r.committed();
    msgs += a.rpc_messages - b.rpc_messages;
    ops += a.batched_ops - b.batched_ops;
    paxos += a.paxos_messages - b.paxos_messages;
    bytes += (a.bytes_sent + a.bytes_received) -
             (b.bytes_sent + b.bytes_received);
    appends += a.log_appends - b.log_appends;
    follower += a.follower_reads - b.follower_reads;
    leader_snap += a.leader_snapshot_reads - b.leader_snapshot_reads;
    max_backlog =
        std::max<std::int64_t>(max_backlog,
                               static_cast<std::int64_t>(a.max_backlog));
    versions_per_key += ratio(static_cast<double>(a.versions),
                              static_cast<double>(a.keys));
    locks_per_key += ratio(static_cast<double>(a.lock_entries),
                           static_cast<double>(a.keys));
    lock_waits += r.after.counter("engine.lock_waits") -
                  r.before.counter("engine.lock_waits");
    takeovers += r.after.counter("repl.takeovers") -
                 r.before.counter("repl.takeovers");
    floor_lag = std::max(floor_lag, r.after.gauge("repl.floor_lag_ticks"));
    chain_len.merge(hist_delta(r.after.histogram("engine.version_chain_len"),
                               r.before.histogram("engine.version_chain_len")));
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string name = std::string("rpc.") + rpc_names[i] +
                               ".latency_us";
      rpc[i].merge(
          hist_delta(r.after.histogram(name), r.before.histogram(name)));
    }
    purge_us.insert(purge_us.end(), r.gc.purge_us.begin(), r.gc.purge_us.end());
    purged.insert(purged.end(), r.gc.purged.begin(), r.gc.purged.end());
  }
  const double pc = static_cast<double>(plain_committed);
  const double rounds = static_cast<double>(plain.size());
  auto rpc_p50 = [&](std::size_t i) {
    return static_cast<double>(rpc[i].quantile(0.5));
  };
  double purged_sum = 0;
  for (double p : purged) purged_sum += p;

  m.push_back({"storage.versions_per_key", ratio(versions_per_key, rounds),
               "ratio"});
  m.push_back({"storage.lock_entries_per_key", ratio(locks_per_key, rounds),
               "ratio"});
  m.push_back({"storage.purge_p50_us", quantile(purge_us, 0.5), "us"});
  m.push_back({"storage.purged_per_call",
               ratio(purged_sum, static_cast<double>(purged.size())),
               "count"});
  m.push_back({"engine.lock_waits_per_commit",
               ratio(static_cast<double>(lock_waits), pc), "ratio"});
  m.push_back({"engine.version_chain_len_p99",
               static_cast<double>(chain_len.quantile(0.99)), "count"});
  m.push_back({"dist.msgs_per_commit", ratio(static_cast<double>(msgs), pc),
               "ratio"});
  m.push_back({"dist.ops_per_batch",
               ratio(static_cast<double>(ops), static_cast<double>(msgs)),
               "ratio"});
  m.push_back({"dist.max_backlog", static_cast<double>(max_backlog), "count"});
  m.push_back({"dist.paxos_msgs_per_commit",
               ratio(static_cast<double>(paxos), pc), "ratio"});
  m.push_back({"rpc.op_batch.server_p50_us", rpc_p50(0), "us"});
  m.push_back({"rpc.finalize.server_p50_us", rpc_p50(1), "us"});
  m.push_back({"net.bytes_per_commit", ratio(static_cast<double>(bytes), pc),
               "B"});
  m.push_back({"net.read_overhead_us",
               w.deploy == Deploy::kEmbedded ? 0.0 : api_read_p50 - rpc_p50(0),
               "us"});
  m.push_back({"repl.appends_per_commit",
               ratio(static_cast<double>(appends), pc), "ratio"});
  m.push_back({"rpc.paxos_prepare.per_commit",
               ratio(static_cast<double>(rpc[2].count), pc), "ratio"});
  m.push_back({"rpc.paxos_accept.per_commit",
               ratio(static_cast<double>(rpc[3].count), pc), "ratio"});
  m.push_back({"rpc.paxos_accept.server_p50_us", rpc_p50(3), "us"});
  m.push_back({"repl.follower_read_share",
               ratio(static_cast<double>(follower),
                     static_cast<double>(follower + leader_snap)),
               "ratio"});
  m.push_back({"rpc.snapshot_read.server_p50_us", rpc_p50(4), "us"});
  m.push_back({"repl.floor_lag_ticks", static_cast<double>(floor_lag),
               "ticks"});
  m.push_back({"repl.takeovers", static_cast<double>(takeovers), "count"});

  // --- trace: coverage and overhead ------------------------------------
  std::vector<double> traced_tps, plain_tps;
  for (const auto& r : traced) {
    traced_tps.push_back(ratio(static_cast<double>(r.committed()), r.phase_s));
  }
  for (const auto& r : plain) {
    plain_tps.push_back(ratio(static_cast<double>(r.committed()), r.phase_s));
  }
  m.push_back({"trace.coverage", ratio(covered_ns, txn_ns), "ratio"});
  m.push_back({"trace.overhead",
               1.0 - ratio(quantile(traced_tps, 0.5), quantile(plain_tps, 0.5)),
               "ratio"});
  return m;
}

/// Writes the traced rounds' kept spans as JSON lines: the first
/// kDumpedTxnsPerClient transactions of every client, plus the servers'
/// span events fetched through the cluster's trace fetch. A client span's
/// tx_id is the library's id of that attempt, which is the trace id of the
/// matching server events.
void write_spans(const std::string& path,
                 const std::vector<RoundResult>& traced) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  for (std::size_t ri = 0; ri < traced.size(); ++ri) {
    const SpanSummary& spans = *traced[ri].spans;
    for (const Span& s : spans.sample) {
      out << "{\"round\": " << ri << ", \"txn\": " << s.txn
          << ", \"attempt\": " << s.attempt << ", \"tx_id\": " << s.engine_tx
          << ", \"span\": \"" << kSpanNames[static_cast<int>(s.kind)]
          << "\", \"start_ns\": " << s.start_ns
          << ", \"dur_ns\": " << (s.end_ns - s.start_ns) << "}\n";
    }
    for (const auto& e : spans.server_spans) {
      out << "{\"round\": " << ri << ", \"tx_id\": " << e.trace_id
          << ", \"server\": \"" << json_escape(e.server) << "\", \"span\": \""
          << json_escape(e.name) << "\", \"at_ticks\": " << e.at_ticks
          << ", \"dur_us\": " << e.dur_us << "}\n";
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "embedded-hot|cluster-tcp|replicated-sim --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = workload_by_name(args.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const Layout layout{w.families, w.family_size};
  const FamilyPicker picker(w.families, w.zipf_theta, args.seed);

  std::printf("fingerprint %s\n", fingerprint().c_str());
  // The whole process runs on one CPU. Clients, transport and server
  // threads hand work to each other many times per transaction; spread
  // over the vCPUs of a virtual machine, those cross-CPU wake-ups made the
  // figures follow the host's steal time (five 30 s cluster-tcp runs read
  // 1.1k-2.5k tx/s, and embedded-hot varied 43k-76k tx/s over ten runs).
  // On one CPU the hand-offs stay local and the figures measure the
  // program's CPU cost and waits; parallel speed-up is not measured.
  const int cpu = pin_to_first_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot restrict the process to one CPU\n");
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 " clients %zu families %zu x %zu "
              "zipf %.2f tx/client/round %zu cpu %d trace %d\n",
              w.name.c_str(), args.seed, w.clients, w.families, w.family_size,
              w.zipf_theta, w.tx_per_client, cpu, args.trace ? 1 : 0);
  std::fflush(stdout);

  // Whole rounds until the budget is spent: another round starts only if
  // the last one fits in the remaining time. At least three rounds (so
  // set-up has a median), and with tracing an untraced and a traced one.
  const auto run_start = Clock::now();
  const std::size_t min_rounds = args.trace ? 2 : 3;
  std::vector<RoundResult> plain, traced;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  double last_round_s = 0;
  // Peak RSS is read after the first round: every round does the same
  // work, so later rounds can only add allocator fragmentation, and their
  // number grows with speed.
  double first_round_rss_mib = 0;
  for (std::uint64_t round = 0;; ++round) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    if (round >= min_rounds && elapsed + last_round_s > args.seconds) break;
    const bool trace_this = args.trace && round % 2 == 1;
    const auto round_start = Clock::now();
    RoundResult r = run_round(w, layout, picker, args.seed, round, trace_this,
                              args.trace && !trace_this);
    last_round_s =
        std::chrono::duration<double>(Clock::now() - round_start).count();
    if (round == 0) first_round_rss_mib = peak_rss_mib();
    for (const auto& c : r.clients) {
      attempted += c.attempted;
      failed += c.failed;
    }
    std::printf("round %" PRIu64 "%s setup %.4f s phase %.3f s committed %"
                PRIu64 " rw p50/p90/p99 %.0f/%.0f/%.0f us"
                " ro p50/p90/p99 %.0f/%.0f/%.0f us round %.2f s\n",
                round, trace_this ? " (traced)" : "", r.setup_s, r.phase_s,
                r.committed(), r.latency.rw_p50_us, r.latency.rw_p90_us,
                r.latency.rw_p99_us, r.latency.ro_p50_us, r.latency.ro_p90_us,
                r.latency.ro_p99_us, last_round_s);
    std::fflush(stdout);
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
    if (!r.violations.empty()) break;  // no point measuring a broken run
    (trace_this ? traced : plain).push_back(std::move(r));
  }

  const std::vector<Metric> metrics = args.trace
                                          ? per_layer_metrics(w, traced, plain)
                                          : end_to_end_metrics(plain, first_round_rss_mib);
  if (args.trace) write_spans(args.spans_out, traced);

  const bool correct = violations.empty();
  for (const auto& v : violations) std::printf("check FAILED %s\n", v.c_str());
  for (const auto& m : metrics) {
    std::printf("metric %-34s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("attempted %" PRIu64 " failed %" PRIu64 "\n", attempted, failed);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
