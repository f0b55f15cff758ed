// serve-mixed: a closed loop of client threads (one per pool worker)
// against one serve::QueryService on Physicians iwc at tau=2^16.
//
// Eight seed keys share a cache budget that holds about three RR arenas,
// with arena_dir persistence on: the working set is larger than the
// cache, so evicted keys reload from disk. Most requests are RR point
// queries (spread of 1, 4 or 8 seeds, marginal gain) on the view a
// client already holds; 5% are world queries (half reach, half
// compsize) on a tau=1024 snapshot view; 1% are top-k requests (View on a
// random key, then TopK(10)), which is where the cache and store reload
// path runs.
// The point-query kernel and the reload path thus run side by side.
//
// Every answer is checked against a single-thread reference computed on
// freshly built arenas before the loop, so answers after a reload are
// checked against a fresh build too.
//
// Memory: the warm-up keeps at most one RR arena resident and latencies
// go into fixed-size reservoirs, so the process peak (peak_rss_mb) is
// set by the serving state — the cache budget plus the views clients
// hold — not by the harness or by the request count.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "random/splitmix64.h"
#include "serve/query_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using soldist::VertexId;
using soldist::serve::QuerySpec;
using soldist::serve::QueryView;
using soldist::serve::SnapshotQueryView;

struct Sizes {
  std::uint64_t tau;
  std::uint64_t snapshot_tau;
  int keys;
  double budget_arenas;  ///< cache budget, in RR arenas
  std::uint64_t point_catalog;
  std::uint64_t world_catalog;
  int topk;
  std::uint64_t pass_requests;  ///< per client and pass, traced run
};

constexpr Sizes kFull = {1u << 16, 1024, 8, 3.5, 4096, 1024, 10, 1250};
constexpr Sizes kSmoke = {1u << 12, 64, 8, 3.5, 512, 128, 10, 125};

enum Kind { kSpread1, kSpread4, kSpread8, kGain };
const char* const kPointSpans[4] = {"serve.spread1", "serve.spread4",
                                    "serve.spread8", "serve.gain"};

struct PointQuery {
  Kind kind = kSpread1;
  std::vector<VertexId> seeds;
  VertexId vertex = 0;
};

struct WorldQuery {
  bool reach = true;  ///< ReachProbability(src, dst); else ExpectedReach(src)
  VertexId src = 0;
  VertexId dst = 0;
};

/// A uniform sample of at most kCapacity latencies from a stream of any
/// length (reservoir sampling), so memory does not grow with throughput.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1u << 15;

  explicit Reservoir(std::uint64_t seed) : rng_(seed) {
    values_.reserve(kCapacity);
  }
  void Add(double x) {
    if (values_.size() < kCapacity) {
      values_.push_back(x);
    } else if (const std::uint64_t j = rng_.Next() % (seen_ + 1);
               j < kCapacity) {
      values_[j] = x;
    }
    seen_ += 1;
  }
  const std::vector<double>& values() const { return values_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  soldist::SplitMix64 rng_;
};

/// Inputs and their single-thread reference answers.
struct Catalog {
  std::vector<PointQuery> points;
  std::vector<WorldQuery> worlds;
  std::vector<std::vector<double>> point_ref;  ///< [key][query]
  std::vector<double> world_ref;
  std::vector<std::vector<VertexId>> topk_ref;  ///< [key]
  std::uint64_t digest = 0;
};

double Answer(const QueryView& view, const PointQuery& q,
              soldist::serve::QueryScratch* scratch) {
  return q.kind == kGain ? view.MarginalGain(q.seeds, q.vertex, scratch)
                         : view.Spread(q.seeds, scratch);
}

double Answer(const SnapshotQueryView& view, const WorldQuery& q,
              soldist::serve::WorldScratch* scratch) {
  return q.reach ? view.ReachProbability(q.src, q.dst, scratch)
                 : view.ExpectedReach(q.src, scratch);
}

Catalog MakeCatalog(const Sizes& sizes, VertexId n, std::uint64_t seed) {
  soldist::SplitMix64 rng(soldist::DeriveSeed(seed, 0x5e7e));
  auto vertex = [&] { return static_cast<VertexId>(rng.Next() % n); };
  Catalog catalog;
  for (std::uint64_t i = 0; i < sizes.point_catalog; ++i) {
    PointQuery q;
    q.kind = static_cast<Kind>(i % 4);  // an exact quarter of each kind
    const int seeds = q.kind == kSpread1 ? 1 : q.kind == kSpread8 ? 8 : 4;
    for (int s = 0; s < seeds; ++s) q.seeds.push_back(vertex());
    q.vertex = vertex();
    catalog.points.push_back(std::move(q));
  }
  for (std::uint64_t i = 0; i < sizes.world_catalog; ++i) {
    WorldQuery q;
    q.reach = i % 2 == 0;
    q.src = vertex();
    q.dst = vertex();
    catalog.worlds.push_back(q);
  }
  return catalog;
}

QuerySpec KeySpec(const Sizes& sizes, std::uint64_t seed, int key) {
  QuerySpec spec;
  spec.sample_number = sizes.tau;
  spec.seed = soldist::DeriveSeed(seed, 1000 + key);
  spec.sample_threads = 0;
  return spec;
}

QuerySpec SnapshotSpec(const Sizes& sizes, std::uint64_t seed) {
  QuerySpec spec;
  spec.sample_number = sizes.snapshot_tau;
  spec.seed = soldist::DeriveSeed(seed, 999);
  spec.sample_threads = 0;
  return spec;
}

soldist::api::WorkloadSpec Workload() {
  return soldist::api::WorkloadSpec::Dataset("Physicians")
      .Probability(soldist::ProbabilityModel::kIwc);
}

/// The serving state the loop runs against.
struct Serving {
  std::unique_ptr<soldist::api::Session> session;
  std::unique_ptr<soldist::serve::QueryService> service;
  SnapshotQueryView worlds;
};

/// The warm-up: a fresh arena_dir, every key's RR arena and the snapshot
/// arena built and saved. A one-byte cache budget keeps only the newest
/// arena resident, and each key's view is dropped once built, so the
/// warm-up never holds more than the serving state will. With `catalog`
/// non-null, also draws the query catalog and computes its reference
/// answers on the fresh builds (outside the timed part).
/// Returns the bytes of one RR arena.
std::uint64_t WarmUp(const Options& options, const Sizes& sizes,
                     const std::string& arena_dir, Catalog* catalog,
                     double* timed_s) {
  auto start = std::chrono::steady_clock::now();
  std::filesystem::remove_all(arena_dir);
  std::filesystem::create_directories(arena_dir);
  soldist::api::SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.arena_dir = arena_dir;
  session_options.arena_budget_bytes = 1;
  soldist::api::Session session(session_options);
  soldist::serve::QueryService service(&session);
  VertexId n = 0;
  {
    ScopedSpan resolve("api.resolve");
    n = session.ResolveWorkload(Workload()).value().ig->num_vertices();
  }
  {
    ScopedSpan build("oracle.build");
    (void)session.ResolveOracle(Workload()).value();
  }
  SnapshotQueryView worlds;
  {
    ScopedSpan build("serve.warm_build");
    worlds = service.SnapshotView(Workload(), SnapshotSpec(sizes, options.seed))
                 .value();
  }
  *timed_s = SecondsSince(start);

  soldist::serve::QueryScratch scratch;
  soldist::serve::WorldScratch world_scratch;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    digest = (digest ^ bits) * 0x100000001b3ull;
  };
  if (catalog != nullptr) {
    *catalog = MakeCatalog(sizes, n, options.seed);
    for (const WorldQuery& q : catalog->worlds) {
      catalog->world_ref.push_back(Answer(worlds, q, &world_scratch));
      mix(catalog->world_ref.back());
    }
    catalog->point_ref.assign(sizes.keys, {});
  }
  std::uint64_t arena_bytes = 0;
  for (int key = 0; key < sizes.keys; ++key) {
    start = std::chrono::steady_clock::now();
    QueryView view;
    {
      ScopedSpan build("serve.warm_build");
      view = service.View(Workload(), KeySpec(sizes, options.seed, key)).value();
    }
    *timed_s += SecondsSince(start);
    if (key == 0) arena_bytes = view.arena().MemoryBytes();
    if (catalog == nullptr) continue;
    for (const PointQuery& q : catalog->points) {
      catalog->point_ref[key].push_back(Answer(view, q, &scratch));
      mix(catalog->point_ref[key].back());
    }
    catalog->topk_ref.push_back(view.TopK(sizes.topk).seeds);
    digest = HashSeeds(catalog->topk_ref.back(), digest);
  }
  if (catalog != nullptr) catalog->digest = digest;
  return arena_bytes;
}

Serving StartServing(const Options& options, const Sizes& sizes,
                     const std::string& arena_dir,
                     std::uint64_t arena_bytes) {
  Serving serving;
  soldist::api::SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.arena_dir = arena_dir;
  session_options.arena_budget_bytes =
      static_cast<std::uint64_t>(sizes.budget_arenas * arena_bytes);
  serving.session = std::make_unique<soldist::api::Session>(session_options);
  serving.service =
      std::make_unique<soldist::serve::QueryService>(serving.session.get());
  serving.worlds =
      serving.service->SnapshotView(Workload(), SnapshotSpec(sizes, options.seed))
          .value();
  return serving;
}

/// The request classes, each timed on its own.
enum Class { kPoint, kReach, kCompsize, kTopK, kClasses };

/// What one or more passes of the closed loop observed. The latency
/// vectors are the clients' reservoir samples, so their length is
/// bounded; the per-class request counts are exact.
struct PassResult {
  std::vector<double> sampled_s[kClasses];
  std::uint64_t seen[kClasses] = {};
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t view_requests = 0;
  double wall_s = 0.0;
};

void Merge(const PassResult& from, PassResult* into) {
  for (int c = 0; c < kClasses; ++c) {
    into->sampled_s[c].insert(into->sampled_s[c].end(),
                              from.sampled_s[c].begin(),
                              from.sampled_s[c].end());
    into->seen[c] += from.seen[c];
  }
  into->requests += from.requests;
  into->errors += from.errors;
  into->mismatches += from.mismatches;
  into->view_requests += from.view_requests;
}

/// One client's observations in a pass.
struct ClientResult {
  explicit ClientResult(std::uint64_t seed) {
    for (int c = 0; c < kClasses; ++c) {
      latency.emplace_back(soldist::DeriveSeed(seed, c + 1));
    }
  }
  std::vector<Reservoir> latency;  ///< by Class
  PassResult counts;
};

/// Runs the clients until `seconds` elapse or each has sent
/// `max_requests` (0 = no cap).
PassResult RunPass(const Options& options, const Sizes& sizes,
                   const Catalog& catalog, Serving* serving, double seconds,
                   std::uint64_t max_requests, std::uint64_t pass) {
  const int clients = options.threads;
  auto client_seed = [&](int c) {
    return soldist::DeriveSeed(options.seed, 7000 + 64 * pass + c);
  };
  std::vector<ClientResult> per_client;
  for (int c = 0; c < clients; ++c) per_client.emplace_back(client_seed(c));
  std::atomic<int> ready{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](int c) {
    ClientResult& result = per_client[c];
    PassResult& out = result.counts;
    soldist::SplitMix64 rng(client_seed(c));
    soldist::serve::QueryScratch scratch;
    soldist::serve::WorldScratch world_scratch;
    int key = c % sizes.keys;
    auto first = serving->service->View(Workload(),
                                        KeySpec(sizes, options.seed, key));
    if (!first.ok()) {
      out.errors += 1;
      return;
    }
    out.view_requests += 1;
    QueryView view = std::move(first).value();
    ready.fetch_add(1);
    while (ready.load() < clients) std::this_thread::yield();
    for (std::uint64_t i = 0; max_requests == 0 || i < max_requests; ++i) {
      const std::uint64_t r = rng.Next() % 1000;
      const auto t0 = std::chrono::steady_clock::now();
      ScopedSpan request("bench.request",
                         (static_cast<std::uint64_t>(c + 1) << 32) | i);
      if (r < 10) {
        const int k = static_cast<int>(rng.Next() % sizes.keys);
        out.view_requests += 1;
        soldist::StatusOr<QueryView> next = soldist::Status::Internal("");
        {
          ScopedSpan span("serve.view");
          next = serving->service->View(Workload(),
                                        KeySpec(sizes, options.seed, k));
        }
        if (!next.ok()) {
          out.errors += 1;
        } else {
          view = std::move(next).value();
          key = k;
          ScopedSpan span("serve.topk");
          if (view.TopK(sizes.topk).seeds != catalog.topk_ref[key]) {
            out.mismatches += 1;
          }
        }
        result.latency[kTopK].Add(SecondsSince(t0));
      } else if (r < 60) {
        const std::uint64_t q = rng.Next() % catalog.worlds.size();
        const WorldQuery& query = catalog.worlds[q];
        double answer;
        {
          ScopedSpan span(query.reach ? "serve.reach" : "serve.compsize");
          answer = Answer(serving->worlds, query, &world_scratch);
        }
        result.latency[query.reach ? kReach : kCompsize].Add(SecondsSince(t0));
        if (answer != catalog.world_ref[q]) out.mismatches += 1;
      } else {
        const std::uint64_t q = rng.Next() % catalog.points.size();
        const PointQuery& query = catalog.points[q];
        double answer;
        {
          ScopedSpan span(kPointSpans[query.kind]);
          answer = Answer(view, query, &scratch);
        }
        result.latency[kPoint].Add(SecondsSince(t0));
        if (answer != catalog.point_ref[key][q]) out.mismatches += 1;
      }
      out.requests += 1;
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  PassResult total;
  for (ClientResult& client : per_client) {
    for (int c = 0; c < kClasses; ++c) {
      client.counts.sampled_s[c] = client.latency[c].values();
      client.counts.seen[c] = client.latency[c].seen();
    }
    Merge(client.counts, &total);
  }
  total.wall_s = SecondsSince(start);
  return total;
}

void CheckPasses(const PassResult& pass,
                 const soldist::serve::ArenaCache::Stats& before,
                 const soldist::serve::ArenaCache::Stats& after,
                 Report* report) {
  report->attempted += pass.requests;
  report->failed += pass.errors;
  report->Check(pass.mismatches == 0,
                "every client answer equals the single-thread reference (" +
                    std::to_string(pass.mismatches) + " of " +
                    std::to_string(pass.requests) + " differ)");
  const std::uint64_t reloads = after.builds - before.builds;
  report->Check(reloads >= 1 && pass.seen[kTopK] >= 1,
                std::to_string(reloads) + " reloads from disk, so TopK after a "
                "reload was checked against a fresh build");
}

}  // namespace

void RunServeWorkload(const Options& options, Report* report) {
  const Sizes& sizes = options.smoke ? kSmoke : kFull;
  const std::string arena_dir =
      options.work_dir + "/serve-arenas-" + std::to_string(::getpid());
  std::printf("serve-mixed: %d clients, %d keys, tau=%llu, snapshot tau=%llu, "
              "budget %.1f arenas\n",
              options.threads, sizes.keys,
              static_cast<unsigned long long>(sizes.tau),
              static_cast<unsigned long long>(sizes.snapshot_tau),
              sizes.budget_arenas);

  Catalog catalog;
  std::uint64_t arena_bytes = 0;
  std::vector<double> setup_s;
  Serving serving;
  const int setups = options.trace ? 1 : 9;
  Tracer::Enable(options.trace);
  for (int i = 0; i < setups; ++i) {
    serving = Serving{};
    ScopedSpan span("bench.setup");
    double warm_s = 0.0;
    arena_bytes = WarmUp(options, sizes, arena_dir,
                         i == setups - 1 ? &catalog : nullptr, &warm_s);
    const auto start = std::chrono::steady_clock::now();
    serving = StartServing(options, sizes, arena_dir, arena_bytes);
    setup_s.push_back(warm_s + SecondsSince(start));
  }
  Tracer::Enable(false);
  std::printf("arena %llu bytes, result digest %s\n",
              static_cast<unsigned long long>(arena_bytes),
              Hex(catalog.digest).c_str());

  if (options.trace) {
    // The same closed loop, alternating short passes with the tracer off
    // and on so host drift and cache state fall on both sides alike.
    const int passes = 32;
    std::vector<double> wall_s[2];
    PassResult all;
    std::uint64_t traced_views = 0, traced_hits = 0, traced_evictions = 0;
    const auto first = serving.service->cache_stats();
    for (int p = 0; p < passes; ++p) {
      const bool on = TracedRound(p);
      const auto before = serving.service->cache_stats();
      Tracer::Enable(on);
      const PassResult pass = RunPass(options, sizes, catalog, &serving, 1e9,
                                      sizes.pass_requests, p);
      Tracer::Enable(false);
      const auto after = serving.service->cache_stats();
      wall_s[on].push_back(pass.wall_s);
      Merge(pass, &all);
      if (on) {
        traced_views += pass.view_requests;
        traced_hits += after.hits - before.hits;
        traced_evictions += after.evictions - before.evictions;
      }
    }
    CheckPasses(all, first, serving.service->cache_stats(), report);
    Tracer::Enable(true);
    Tracer::Note("serve.cache_hit_ratio", static_cast<double>(traced_hits) /
                                              static_cast<double>(traced_views));
    Tracer::Note("serve.evictions", static_cast<double>(traced_evictions));
    RunLayerProbes(options, serving.session.get(), Workload(), report);
    Tracer::Enable(false);
    serving = Serving{};
    std::filesystem::remove_all(arena_dir);
    FinishTrace(options, Median(wall_s[0]), Median(wall_s[1]), report);
    return;
  }

  auto before = serving.service->cache_stats();
  const PassResult pass =
      RunPass(options, sizes, catalog, &serving, options.seconds, 0, 0);
  auto after = serving.service->cache_stats();
  CheckPasses(pass, before, after, report);
  serving = Serving{};
  std::filesystem::remove_all(arena_dir);

  const double qps = static_cast<double>(pass.requests) / pass.wall_s;
  std::printf("measured %llu requests in %.2f s; cache: %llu hits, %llu "
              "reloads, %llu evictions over %llu view requests\n",
              static_cast<unsigned long long>(pass.requests), pass.wall_s,
              static_cast<unsigned long long>(after.hits - before.hits),
              static_cast<unsigned long long>(after.builds - before.builds),
              static_cast<unsigned long long>(after.evictions -
                                              before.evictions),
              static_cast<unsigned long long>(pass.view_requests));
  auto n = [&pass](Class c) {
    return "(n=" + std::to_string(pass.seen[c]) + ", " +
           std::to_string(pass.sampled_s[c].size()) + " sampled)";
  };
  const std::vector<double>& points = pass.sampled_s[kPoint];
  const std::vector<double>& reaches = pass.sampled_s[kReach];
  const std::vector<double>& topks = pass.sampled_s[kTopK];
  PrintMetric("query_p50_us", 1e6 * Median(points), "us", n(kPoint));
  PrintMetric("query_p99_us", 1e6 * Percentile(points, 99), "us", n(kPoint));
  PrintMetric("reach_p50_us", 1e6 * Median(reaches), "us", n(kReach));
  PrintMetric("compsize_p50_us", 1e6 * Median(pass.sampled_s[kCompsize]), "us",
              n(kCompsize));
  PrintMetric("topk_p50_ms", 1e3 * Median(topks), "ms", n(kTopK));
  PrintMetric("topk_p99_ms", 1e3 * Percentile(topks, 99), "ms", n(kTopK));
  PrintMetric("serve_qps", qps, "1/s", "");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("ops_per_s", qps, "1/s");
  report->Set("heavy_p50_ms", 1e3 * Median(topks), "ms");
  report->Set("medium_p50_ms", 1e3 * Median(reaches), "ms");
  report->Set("light_p50_ms", 1e3 * Median(points), "ms");
}

}  // namespace perfbench
