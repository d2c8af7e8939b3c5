// Host-cost benchmark over real Keypad operations.
//
//   keypad_perf --workload compile_prod|fleet_10k --seed N --seconds S
//               --trace 0|1 [--spans FILE]
//
// Each workload drives the program through its public API from one thread
// (the simulator is single-threaded). compile_prod runs on the production
// configuration: both tiers replicated (2 key shards x 3 replicas, 3
// metadata replicas), admission control and retry budgets on, journaled
// storage, and audit-log segmentation with truncation and cold shipping.
// README.md says why each workload was chosen and which layer metric should
// move which end-to-end metric.
//
// --trace 0 measures the end-to-end metrics: the system is set up
// kSetUps times (setup_s is the median), and the measured phase runs whole
// passes of the workload until --seconds of host time have gone by: the
// compile on its last set-up, the fleet once on each provisioned fleet.
// --trace 1 runs the phase once untraced and once with spans recorded
// around the program's seams (perfbench/tracing.h), and reports the
// per-layer metrics plus the difference between the two runs.
//
// stdout carries a `digest` line (per-op virtual latencies and every audit
// chain tip: identical on every run of one seed) and, last, one JSON object
// with the keys correct, attempted, failed and metrics.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/tracing.h"
#include "src/cryptocore/secure_random.h"
#include "src/cryptocore/sha256.h"
#include "src/ibe/bf_ibe.h"
#include "src/keypad/deployment.h"
#include "src/wire/codec.h"
#include "src/workload/apache.h"
#include "src/workload/fleet.h"
#include "src/workload/trace.h"

namespace keypad::perf {
namespace {

// --- Small helpers. ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "keypad_perf: %s\nusage: keypad_perf --workload "
               "compile_prod|fleet_10k --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    Usage("--workload and a positive --seconds are required");
  }
  return args;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Allocator live bytes: in-use arena chunks plus mmapped blocks.
double LiveHeapMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// Metrics in output order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < entries_.size(); ++i) {
      double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Correctness gates: every failed gate is printed and makes correct=false.
struct Gates {
  bool ok = true;
  void Check(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "keypad_perf: gate failed: %s\n", what.c_str());
    }
  }
};

void HashU64(Sha256& h, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  h.Update(b, 8);
}

std::string HexDigest(Sha256& h) {
  Sha256::Digest d = h.Finish();
  return ToHex(d.data(), d.size());
}

template <typename Log>
void HashTip(Sha256& h, const Log& log) {
  HashU64(h, log.size());
  h.Update(log.entries().empty() ? log.base_seal()
                                 : log.entries().back().entry_hash);
}

// --- Computed unit probes on public functions. -------------------------------

// Host ms per IBE lock (client-side encryption of a 33-byte tagged key blob
// under a pathname identity), median of a few runs. Computed, not traced.
double ProbeIbeLockMs(const IbePublicParams& params) {
  SecureRandom rng(0x1be);
  Bytes blob(33, 0x5a);
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    std::string identity = "laptop-1|/build/unit" + std::to_string(i) + ".o";
    int64_t t0 = NowNs();
    IbeCiphertext ct = IbeEncrypt(params, identity, blob, rng);
    ms.push_back(Seconds(NowNs() - t0) * 1e3);
    if (ct.ct.size() != blob.size()) {
      std::fprintf(stderr, "keypad_perf: IBE probe produced a bad blob\n");
      std::exit(1);
    }
  }
  return Percentile(ms, 0.5);
}

// Host us to encode and to decode one request of the workload's shape with
// its codec, averaged over a fixed loop. Computed, not traced.
void ProbeCodec(WireCodec codec, const std::string& method,
                const WireValue::Array& params, double* encode_us,
                double* decode_us) {
  constexpr int kIters = 2000;
  std::string message;
  int64_t t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    message.clear();
    EncodeCallInto(codec, method, params, message);
  }
  *encode_us = Seconds(NowNs() - t0) * 1e6 / kIters;
  size_t decoded = 0;
  t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    Result<XmlRpcCall> call = DecodeCallAuto(message);
    decoded += call.ok() ? call->params.size() : 0;
  }
  *decode_us = Seconds(NowNs() - t0) * 1e6 / kIters;
  if (decoded != kIters * params.size()) {
    std::fprintf(stderr, "keypad_perf: codec probe failed to round-trip\n");
    std::exit(1);
  }
}

WireValue::Array GetKeyShape(int ids) {
  SecureRandom rng(0xc0dec);
  WireValue::Array items;
  for (int i = 0; i < ids; ++i) {
    WireValue::Struct item;
    item.emplace("id", WireValue(AuditId::Random(rng).ToBytes()));
    item.emplace("op", WireValue(static_cast<int64_t>(AccessOp::kDemandFetch)));
    items.push_back(WireValue(std::move(item)));
  }
  WireValue::Array params;
  params.push_back(WireValue(std::move(items)));
  return params;
}

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetUps = 3;

// --- Production configuration. -----------------------------------------------

SegmentedLogOptions ProductionLog() {
  SegmentedLogOptions log;
  log.segment_ops = 64;
  log.cold_ship = true;
  log.truncate = true;
  return log;
}

DeploymentOptions ProductionOptions() {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.key_shards = 2;
  options.key_replicas = 3;
  options.meta_replicas = 3;
  options.admission.enabled = true;
  options.rpc.retry_budget.enabled = true;
  options.key_service.log = ProductionLog();
  // The group the repo's workload benches use: thousands of IBE operations
  // run per pass, and only the mechanism matters, not the security margin.
  options.ibe_group = &BenchPairingParams();
  return options;
}

// --- compile_prod. -----------------------------------------------------------

// The Apache compile at 5 modules: 13,473 Vfs calls, 192 of them IBE
// creates and renames.
ApacheWorkload CompileWorkload(uint64_t seed) {
  ApacheParams params;
  params.modules = 5;
  params.total_compute = params.total_compute / 5;
  return MakeApacheWorkload(params, seed);
}

Layer LayerOf(TraceOp::Kind kind) {
  switch (kind) {
    case TraceOp::Kind::kRead:
      return Layer::kVfsRead;
    case TraceOp::Kind::kWrite:
      return Layer::kVfsWrite;
    case TraceOp::Kind::kCompute:
      return Layer::kThink;
    default:
      return Layer::kVfsMeta;
  }
}

bool IsMutation(TraceOp::Kind kind) {
  return kind != TraceOp::Kind::kRead && kind != TraceOp::Kind::kReaddir &&
         kind != TraceOp::Kind::kStat && kind != TraceOp::Kind::kCompute;
}

// One set-up system: a production deployment plus the KeypadFs the
// benchmark mounts on a copy of the deployment's formatted volume. In a
// traced system the mount's key client and storage backend are the
// tracing wrappers; otherwise they are the real ones.
struct TraceSystem {
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TracingKeyClient> key;
  TracingBackend* backend = nullptr;  // Owned by `device`.
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<KeypadFs> fs;
};

std::unique_ptr<TraceSystem> SetUpTraceSystem(const ApacheWorkload& workload,
                                              bool traced) {
  auto sys = std::make_unique<TraceSystem>();
  sys->dep = std::make_unique<Deployment>(ProductionOptions());
  Deployment& dep = *sys->dep;
  // The metadata tier has no log-options field in DeploymentOptions; its
  // public ConfigureLog applies the same lifecycle to every replica.
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    dep.meta_replica(r).ConfigureLog(ProductionLog());
  }
  KeyClient* key = &dep.key_client();
  std::unique_ptr<StorageBackend> backend = dep.device().backend().Clone();
  if (traced) {
    sys->tracer = std::make_unique<Tracer>(size_t{1} << 17);
    sys->key = std::make_unique<TracingKeyClient>(key, sys->tracer.get());
    key = sys->key.get();
    auto wrapped =
        std::make_unique<TracingBackend>(std::move(backend), sys->tracer.get());
    sys->backend = wrapped.get();
    backend = std::move(wrapped);
  }
  sys->device = std::make_unique<BlockDevice>(std::move(backend));
  KeypadFs::Services services;
  services.key = key;
  services.meta = &dep.meta_client();
  services.ibe = &dep.metadata_service().ibe_params();
  auto fs = KeypadFs::Mount(sys->device.get(), &dep.queue(),
                            dep.options().seed ^ 0x5555,
                            dep.options().password, dep.options().fs_options,
                            dep.options().config, services);
  if (!fs.ok()) {
    std::fprintf(stderr, "keypad_perf: mount failed: %s\n",
                 fs.status().ToString().c_str());
    std::exit(1);
  }
  sys->fs = std::move(*fs);
  TraceRunner runner(sys->fs.get(), &dep.queue());
  TraceRunResult setup = runner.Run(workload.setup);
  if (setup.failures != 0) {
    std::fprintf(stderr, "keypad_perf: setup trace failed: %s\n",
                 setup.first_failure.ToString().c_str());
    std::exit(1);
  }
  return sys;
}

// Every audit chain tip of both tiers, all replicas.
void HashChainTips(Sha256& h, Deployment& dep) {
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      HashTip(h, dep.key_replica(s, r).log());
    }
  }
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    HashTip(h, dep.meta_replica(r).log());
  }
}

// Counters read from the program's public stats, summed over the tiers.
struct TierCounters {
  uint64_t events = 0;
  uint64_t key_rows = 0;  // Rows on the shard leaders' chains.
  uint64_t seals = 0;     // Commit groups sealed on the shard leaders.
  uint64_t seal_ns = 0;   // Host time sealing, every key replica.
  uint64_t hot_hits = 0;
  uint64_t hot_misses = 0;
  uint64_t deltas = 0;
  uint64_t acks = 0;
  uint64_t requests = 0;
  uint64_t meta_requests = 0;
  uint64_t shed = 0;
  uint64_t calls = 0;
  uint64_t attempts = 0;
  uint64_t link_bytes = 0;
  uint64_t link_msgs = 0;
};

TierCounters ReadCounters(Deployment& dep) {
  TierCounters c;
  c.events = dep.queue().executed_count();
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    ReplicaSet* set = dep.replica_set(s);
    size_t leader = set != nullptr ? set->current_leader() : 0;
    const KeyService& lead = dep.key_replica(s, leader);
    c.key_rows += lead.log().size();
    c.seals += lead.log().commit_groups();
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      KeyService::LoadStats load = dep.key_replica(s, r).load_stats();
      c.seal_ns += load.seal_ns;
      c.hot_hits += load.hot_hits;
      c.hot_misses += load.hot_misses;
      RpcServer& server = dep.key_replica_rpc_server(s, r);
      c.requests += server.requests_handled();
      c.shed += server.requests_shed();
    }
    if (set != nullptr) {
      c.deltas += set->stats().deltas_shipped;
      c.acks += set->stats().append_acks;
    }
    c.calls += dep.key_shard_rpc(s).calls_started();
    c.attempts += dep.key_shard_rpc(s).attempts_started();
  }
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    RpcServer& server = dep.meta_replica_rpc_server(r);
    c.requests += server.requests_handled();
    c.meta_requests += server.requests_handled();
    c.shed += server.requests_shed();
  }
  if (MetaReplicaSet* set = dep.meta_replica_set()) {
    c.deltas += set->stats().deltas_shipped;
    c.acks += set->stats().append_acks;
  }
  c.calls += dep.meta_rpc().calls_started();
  c.attempts += dep.meta_rpc().attempts_started();
  c.link_bytes = dep.client_link().bytes_sent();
  c.link_msgs = dep.client_link().messages_sent();
  return c;
}

uint64_t ReplyCacheEntries(Deployment& dep) {
  uint64_t n = 0;
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      n += dep.key_replica_rpc_server(s, r).reply_cache().size();
    }
  }
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    n += dep.meta_replica_rpc_server(r).reply_cache().size();
  }
  return n;
}

// What one measured phase on one system produced.
struct TracePhase {
  int64_t host_ns = 0;  // Whole phase, idle simulation included.
  int passes = 0;
  uint64_t calls = 0;   // Vfs calls (think/idle ops excluded).
  uint64_t failed = 0;
  uint64_t mutations = 0;
  uint64_t bytes_written = 0;
  std::vector<double> call_us;  // Host us per Vfs call.
  std::vector<double> virt_ms;  // Virtual ms per Vfs call, first pass.
  // Think/idle ops of the first pass, by quarter of its idle time (each op
  // goes to the quarter holding its midpoint): host ns and virtual ns.
  int64_t think_host_ns[4] = {0, 0, 0, 0};
  int64_t think_virt_ns[4] = {0, 0, 0, 0};
  std::string digest;  // First pass: per-op virtual latency + chain tips.
  double live_heap_mb = 0;
  TierCounters before;
  TierCounters after;
};

// "make clean": the compile recreates every object through create-temp-
// then-rename, which refuses existing destinations.
Trace CleanTrace(Vfs& fs, const std::string& dir) {
  Trace clean;
  auto entries = fs.Readdir(dir);
  if (entries.ok()) {
    for (const DirEntry& entry : *entries) {
      if (!entry.is_dir) {
        clean.Add(TraceOp::Unlink(dir + "/" + entry.name));
      }
    }
  }
  return clean;
}

// Runs whole passes of the phase trace through the program's TraceRunner
// until `seconds` of host time have gone by. Each call is timed between
// the runner's after-op hooks; in a traced system each op is also a span.
TracePhase RunTracePhase(TraceSystem& sys, const ApacheWorkload& workload,
                         double seconds) {
  Deployment& dep = *sys.dep;
  KeypadFs& fs = *sys.fs;
  Tracer* tracer = sys.tracer.get();
  TracePhase out;
  out.call_us.reserve(workload.compile.ops.size() * 4);
  out.virt_ms.reserve(workload.compile.ops.size());
  fs.ResetStats();
  out.before = ReadCounters(dep);

  const Trace* trace = nullptr;
  size_t next = 0;  // Index of the op about to run in *trace.
  uint32_t op_id = 0;
  int32_t open_span = -1;
  int64_t op_start = 0;
  SimTime op_vstart;
  const int64_t idle_total = workload.compile.TotalCompute().nanos();
  int64_t idle_seen = 0;  // Idle virtual ns of the first pass so far.
  Sha256 digest;
  auto begin_op = [&] {
    if (tracer != nullptr) {
      tracer->set_op(op_id);
      open_span = tracer->Begin(LayerOf(trace->ops[next].kind));
    }
    op_vstart = dep.queue().Now();
    op_start = NowNs();
  };
  TraceRunner runner(&fs, &dep.queue());
  runner.set_after_op([&](const TraceOp& op) {
    int64_t host = NowNs() - op_start;
    SimDuration virt = dep.queue().Now() - op_vstart;
    if (tracer != nullptr) {
      tracer->End(open_span);
    }
    if (op.kind == TraceOp::Kind::kCompute) {
      if (out.passes == 0 && trace == &workload.compile) {
        int64_t mid = idle_seen + op.compute.nanos() / 2;
        size_t quarter = static_cast<size_t>(std::clamp<int64_t>(
            mid * 4 / std::max<int64_t>(1, idle_total), 0, 3));
        out.think_host_ns[quarter] += host;
        out.think_virt_ns[quarter] += virt.nanos();
        idle_seen += op.compute.nanos();
      }
    } else {
      ++out.calls;
      out.call_us.push_back(static_cast<double>(host) * 1e-3);
      if (IsMutation(op.kind)) {
        ++out.mutations;
      }
      if (op.kind == TraceOp::Kind::kWrite) {
        out.bytes_written += op.size;
      }
      if (out.passes == 0 && trace == &workload.compile) {
        out.virt_ms.push_back(virt.seconds_f() * 1e3);
      }
    }
    if (out.passes == 0 && trace == &workload.compile) {
      HashU64(digest, static_cast<uint64_t>(virt.nanos()));
    }
    ++op_id;
    if (++next < trace->ops.size()) {
      begin_op();
    }
  });
  auto run = [&](const Trace& t) {
    if (t.ops.empty()) {
      return;
    }
    trace = &t;
    next = 0;
    begin_op();
    TraceRunResult result = runner.Run(t);
    out.failed += result.failures;
    if (result.failures != 0) {
      std::fprintf(stderr, "keypad_perf: %zu failed ops, first: %s\n",
                   result.failures, result.first_failure.ToString().c_str());
    }
  };

  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  const int64_t start = NowNs();
  do {
    if (out.passes > 0) {
      Trace clean = CleanTrace(fs, "/build");
      run(clean);
    }
    run(workload.compile);
    if (out.passes == 0) {
      HashChainTips(digest, dep);
      out.digest = HexDigest(digest);
    }
    ++out.passes;
  } while (Seconds(NowNs() - start) < seconds);
  out.host_ns = NowNs() - start;
  if (tracer != nullptr) {
    tracer->set_enabled(false);
  }
  out.live_heap_mb = LiveHeapMb();
  out.after = ReadCounters(dep);
  return out;
}

// The compile's gates, checked after the phase.
void CheckTraceSystem(TraceSystem& sys, const TracePhase& phase,
                      Gates& gates) {
  Deployment& dep = *sys.dep;
  gates.Check(phase.failed == 0, "trace workload has zero failed ops");
  for (size_t s = 0; s < dep.key_shard_count(); ++s) {
    for (size_t r = 0; r < dep.key_replica_count(); ++r) {
      Status st = dep.key_replica(s, r).log().VerifyFullChain();
      gates.Check(st.ok(), "key shard " + std::to_string(s) + " replica " +
                               std::to_string(r) + " chain verifies: " +
                               st.ToString());
    }
  }
  for (size_t r = 0; r < dep.meta_replica_count(); ++r) {
    Status st = dep.meta_replica(r).log().VerifyFullChain();
    gates.Check(st.ok(), "metadata replica " + std::to_string(r) +
                             " chain verifies: " + st.ToString());
  }
  // Every key the file system obtained from the key tier left a row.
  const KeypadFs::Stats& stats = sys.fs->stats();
  uint64_t obtained = stats.demand_fetches + stats.keys_prefetched;
  uint64_t rows = phase.after.key_rows - phase.before.key_rows;
  gates.Check(rows >= obtained, "key-tier rows (" + std::to_string(rows) +
                                    ") cover keys obtained (" +
                                    std::to_string(obtained) + ")");
  if (sys.key != nullptr) {
    // Traced systems know each obtained id: each must appear in a row.
    std::set<AuditId> logged;
    for (size_t s = 0; s < dep.key_shard_count(); ++s) {
      ReplicaSet* set = dep.replica_set(s);
      const KeyService& lead =
          dep.key_replica(s, set != nullptr ? set->current_leader() : 0);
      auto all = lead.log().AllEntriesFromSeq(0, /*repair=*/true);
      gates.Check(all.ok(), "key chain readable from genesis");
      if (all.ok()) {
        for (const AuditLogEntry& e : *all) {
          if (e.device_id == dep.device_id()) {
            logged.insert(e.audit_id);
          }
        }
      }
    }
    uint64_t missing = 0;
    for (const AuditId& id : sys.key->obtained_ids()) {
      missing += logged.count(id) == 0 ? 1 : 0;
    }
    gates.Check(missing == 0, std::to_string(missing) +
                                  " obtained keys have no audit row");
  }
}

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::string info;  // Printed on the digest line.
};

void ThinkRates(const TracePhase& p, double* all, double* q1, double* q4) {
  auto rate = [](int64_t host, int64_t virt) {
    return virt == 0 ? 0 : Seconds(host) * 1e3 / (Seconds(virt) / 3600.0);
  };
  int64_t host = 0, virt = 0;
  for (int q = 0; q < 4; ++q) {
    host += p.think_host_ns[q];
    virt += p.think_virt_ns[q];
  }
  *all = rate(host, virt);
  *q1 = rate(p.think_host_ns[0], p.think_virt_ns[0]);
  *q4 = rate(p.think_host_ns[3], p.think_virt_ns[3]);
}

std::string VirtInfo(const std::vector<double>& virt_ms) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "virt_ms_p50=%.6f virt_ms_p99=%.6f",
                Percentile(virt_ms, 0.5), Percentile(virt_ms, 0.99));
  return buf;
}

RunResult RunCompileWorkload(const Args& args) {
  const ApacheWorkload workload = CompileWorkload(args.seed);
  RunResult res;
  Gates gates;
  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<TraceSystem> sys;
    std::string last_tips;
    for (int i = 0; i < kSetUps; ++i) {
      sys.reset();
      int64_t t0 = NowNs();
      sys = SetUpTraceSystem(workload, /*traced=*/false);
      setup_s.push_back(Seconds(NowNs() - t0));
      Sha256 tips;
      HashChainTips(tips, *sys->dep);
      std::string digest = HexDigest(tips);
      gates.Check(i == 0 || digest == last_tips,
                  "repeated set-ups reach the same chain tips");
      last_tips = digest;
    }
    TracePhase phase = RunTracePhase(*sys, workload, args.seconds);
    CheckTraceSystem(*sys, phase, gates);
    res.attempted = phase.calls;
    res.failed = phase.failed;
    res.metrics.Set("setup_s", Percentile(setup_s, 0.5), "s");
    res.metrics.Set("ops_per_s",
                    static_cast<double>(phase.calls) / Seconds(phase.host_ns),
                    "1/s");
    res.metrics.Set("op_us_p50", Percentile(phase.call_us, 0.5), "us");
    res.metrics.Set("op_us_tail", Percentile(phase.call_us, 0.99), "us");
    res.metrics.Set("live_heap_mb", phase.live_heap_mb, "MB");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "digest=%s passes=%d calls=%llu tail=p99 n=%zu %s",
                  phase.digest.c_str(), phase.passes,
                  static_cast<unsigned long long>(phase.calls),
                  phase.call_us.size(), VirtInfo(phase.virt_ms).c_str());
    res.info = buf;
    res.correct = gates.ok;
    return res;
  }

  // Traced run: the same phase untraced, then traced, on fresh set-ups.
  TracePhase plain;
  {
    auto sys = SetUpTraceSystem(workload, /*traced=*/false);
    plain = RunTracePhase(*sys, workload, args.seconds);
  }
  auto sys = SetUpTraceSystem(workload, /*traced=*/true);
  const TracingKeyClient& key = *sys->key;
  const TracingBackend& backend = *sys->backend;
  uint64_t key_calls0 = key.calls();
  uint64_t key_keys0 = key.keys_obtained();
  uint64_t syncs0 = backend.syncs();
  uint64_t bytes0 = backend.bytes_applied();
  TracePhase phase = RunTracePhase(*sys, workload, args.seconds);
  CheckTraceSystem(*sys, phase, gates);
  gates.Check(phase.digest == plain.digest,
              "traced and untraced runs behave identically");
  Deployment& dep = *sys->dep;
  const Tracer& tracer = *sys->tracer;
  std::vector<int64_t> self;
  gates.Check(tracer.SelfTimes(&self), "no span's children exceed the span");

  std::vector<double> read_us, write_us, meta_us;
  double vfs_self_ns = 0, apply_ns = 0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    switch (s.layer) {
      case Layer::kVfsRead:
        read_us.push_back(us);
        vfs_self_ns += static_cast<double>(self[i]);
        break;
      case Layer::kVfsWrite:
        write_us.push_back(us);
        vfs_self_ns += static_cast<double>(self[i]);
        break;
      case Layer::kVfsMeta:
        meta_us.push_back(us);
        vfs_self_ns += static_cast<double>(self[i]);
        break;
      case Layer::kStorageApply:
        apply_ns += us * 1e3;
        break;
      default:
        break;
    }
  }
  const double calls = static_cast<double>(phase.calls);
  const TierCounters& a = phase.after;
  const TierCounters& b = phase.before;
  const KeypadFs::Stats& fs_stats = sys->fs->stats();
  const KeyCache& cache = sys->fs->key_cache();
  double virt_hours = 0;
  for (int q = 0; q < 4; ++q) {
    virt_hours += Seconds(phase.think_virt_ns[q]) / 3600.0;
  }
  uint64_t key_calls = key.calls() - key_calls0;
  uint64_t rows = a.key_rows - b.key_rows;
  uint64_t events = a.events - b.events;
  Metrics& m = res.metrics;
  m.Set("keypad.read_us_p50", Percentile(read_us, 0.5), "us");
  m.Set("keypad.write_us_p50", Percentile(write_us, 0.5), "us");
  m.Set("keypad.meta_us_p50", Percentile(meta_us, 0.5), "us");
  m.Set("keypad.self_us_per_op", vfs_self_ns * 1e-3 / calls, "us");
  m.Set("keypad.cache_hit_ratio",
        Ratio(cache.hits(), cache.hits() + cache.misses()), "ratio");
  m.Set("keypad.prefetched_per_miss",
        Ratio(fs_stats.keys_prefetched, fs_stats.demand_fetches), "ratio");
  m.Set("ibe.locks", fs_stats.ibe_locks, "count");
  m.Set("ibe.lock_ms", ProbeIbeLockMs(dep.metadata_service().ibe_params()),
        "ms");
  m.Set("metaservice.requests", a.meta_requests - b.meta_requests, "count");
  m.Set("blockdev.apply_us_per_op", apply_ns * 1e-3 / calls, "us");
  m.Set("blockdev.syncs_per_write",
        Ratio(backend.syncs() - syncs0, phase.mutations), "ratio");
  m.Set("blockdev.write_amp",
        Ratio(backend.bytes_applied() - bytes0, phase.bytes_written),
        "ratio");
  m.Set("keyservice.calls_per_op", key_calls / calls, "ratio");
  m.Set("keyservice.keys_per_call",
        Ratio(key.keys_obtained() - key_keys0, key_calls), "ratio");
  m.Set("keyservice.hot_hit_ratio",
        Ratio(a.hot_hits - b.hot_hits,
              (a.hot_hits - b.hot_hits) + (a.hot_misses - b.hot_misses)),
        "ratio");
  m.Set("auditlog.rows_per_key",
        Ratio(rows, key.keys_obtained() - key_keys0), "ratio");
  m.Set("auditlog.rows_per_seal", Ratio(rows, a.seals - b.seals), "ratio");
  m.Set("auditlog.seal_ms", static_cast<double>(a.seal_ns - b.seal_ns) * 1e-6,
        "ms");
  m.Set("replication.deltas_per_write", Ratio(a.deltas - b.deltas,
                                              phase.mutations), "ratio");
  m.Set("replication.acks_per_vhour", Ratio(a.acks - b.acks, virt_hours),
        "1/h");
  m.Set("rpc.requests_per_op", (a.requests - b.requests) / calls, "ratio");
  m.Set("rpc.attempts_per_call",
        Ratio(a.attempts - b.attempts, a.calls - b.calls), "ratio");
  m.Set("rpc.shed_frac", Ratio(a.shed - b.shed, a.requests - b.requests),
        "ratio");
  m.Set("rpc.reply_cache_entries", ReplyCacheEntries(dep), "count");
  m.Set("net.bytes_per_op", (a.link_bytes - b.link_bytes) / calls, "B");
  m.Set("net.msgs_per_op", (a.link_msgs - b.link_msgs) / calls, "ratio");
  double enc = 0, dec = 0;
  ProbeCodec(RpcOptions{}.codec, "key.get_multi", GetKeyShape(4), &enc, &dec);
  m.Set("wire.encode_us", enc, "us");
  m.Set("wire.decode_us", dec, "us");
  m.Set("sim.events_per_op", events / calls, "ratio");
  m.Set("sim.host_ns_per_event",
        static_cast<double>(phase.host_ns) / static_cast<double>(events),
        "ns");
  double idle = 0, q1 = 0, q4 = 0;
  ThinkRates(phase, &idle, &q1, &q4);
  m.Set("sim.idle_ms_per_vhour", idle, "ms/h");
  m.Set("sim.idle_ms_per_vhour_q1", q1, "ms/h");
  m.Set("sim.idle_ms_per_vhour_q4", q4, "ms/h");
  m.Set("sim.queue_nodes", dep.queue().allocated_nodes(), "count");
  // From the untraced run: the traced heap also holds the spans.
  m.Set("mem.heap_kb_per_device", plain.live_heap_mb * 1024.0, "KB");
  m.Set("trace.overhead_frac",
        static_cast<double>(phase.host_ns) /
                static_cast<double>(plain.host_ns) -
            1.0,
        "ratio");
  m.Set("trace.spans", tracer.spans().size(), "count");
  res.attempted = phase.calls;
  res.failed = phase.failed;
  gates.Check(rows >= key.keys_obtained() - key_keys0,
              "auditlog.rows_per_key >= 1");
  if (!args.spans_path.empty()) {
    gates.Check(tracer.WriteTsv(args.spans_path),
                "spans written to " + args.spans_path);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "digest=%s passes=%d untraced_passes=%d tail=p99 n=%zu %s",
                phase.digest.c_str(), phase.passes, plain.passes,
                phase.call_us.size(), VirtInfo(phase.virt_ms).c_str());
  res.info = buf;
  res.correct = gates.ok;
  return res;
}

// --- fleet_10k. --------------------------------------------------------------

FleetOptions FleetSpec(uint64_t seed) {
  FleetOptions options;
  options.users = 5000;
  options.devices_per_user = 2;
  options.shards = 4;
  options.codec = WireCodec::kXml;
  options.duration = SimDuration::Seconds(8);
  options.flash_crowd = true;
  options.revocation_storm = true;
  options.seed = seed;
  return options;
}

// One provisioned fleet and its run. The open loop lives inside
// FleetWorkload::Run, so host cost per open is sampled per slice of
// virtual time: a probe event every kSlice records host time and the
// key requests the shards have handled so far.
struct FleetRep {
  double setup_s = 0;
  int64_t host_ns = 0;
  FleetWorkload::Stats stats;
  std::vector<double> slice_us;  // Host us per key request, per slice.
  std::string digest;
  double live_heap_mb = 0;
  uint64_t events = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t reply_cache = 0;
  uint64_t rows = 0;  // Rows appended during the run, all shards.
  uint64_t seals = 0;
  uint64_t seal_ns = 0;
  uint64_t hot_hits = 0;
  uint64_t hot_misses = 0;
  size_t queue_nodes = 0;
  size_t spans = 0;
  bool spans_ok = true;
};

constexpr SimDuration kSlice = SimDuration::Millis(10);

FleetRep RunFleetRep(const FleetOptions& options, Tracer* tracer) {
  FleetRep rep;
  EventQueue queue;
  int64_t t0 = NowNs();
  FleetWorkload fleet(&queue, options);
  fleet.Provision();
  rep.setup_s = Seconds(NowNs() - t0);

  auto requests = [&fleet] {
    uint64_t n = 0;
    for (int s = 0; s < fleet.shard_count(); ++s) {
      n += fleet.server(s)->requests_handled();
    }
    return n;
  };
  uint64_t rows0 = 0, seals0 = 0, seal_ns0 = 0;
  for (int s = 0; s < fleet.shard_count(); ++s) {
    rows0 += fleet.shard(s)->log().size();
    seals0 += fleet.shard(s)->log().commit_groups();
    seal_ns0 += fleet.shard(s)->load_stats().seal_ns;
  }
  const uint64_t events0 = queue.executed_count();
  const SimTime end = queue.Now() + options.duration;
  uint64_t last_requests = requests();
  int64_t last_ns = 0;
  int32_t slice_span = -1;
  uint32_t slice = 0;
  std::function<void()> probe = [&] {
    int64_t now = NowNs();
    uint64_t handled = requests();
    if (tracer != nullptr) {
      tracer->End(slice_span);
    }
    if (last_ns != 0 && handled > last_requests) {
      rep.slice_us.push_back(static_cast<double>(now - last_ns) * 1e-3 /
                             static_cast<double>(handled - last_requests));
    }
    last_requests = handled;
    if (queue.Now() + kSlice <= end) {
      if (tracer != nullptr) {
        tracer->set_op(slice++);
        slice_span = tracer->Begin(Layer::kFleetSlice);
      }
      queue.ScheduleAfter(kSlice, [&probe] { probe(); });
    }
    last_ns = NowNs();
  };
  queue.ScheduleAfter(SimDuration(), [&probe] { probe(); });
  if (tracer != nullptr) {
    tracer->set_enabled(true);
  }
  t0 = NowNs();
  rep.stats = fleet.Run();
  rep.host_ns = NowNs() - t0;
  if (tracer != nullptr) {
    tracer->set_enabled(false);
    std::vector<int64_t> self;
    rep.spans_ok = tracer->SelfTimes(&self);
    rep.spans = tracer->spans().size();
  }
  rep.live_heap_mb = LiveHeapMb();
  rep.events = queue.executed_count() - events0;
  rep.queue_nodes = queue.allocated_nodes();
  rep.requests = requests();
  Sha256 digest;
  const FleetWorkload::Stats& st = rep.stats;
  for (uint64_t v : {st.opens_issued, st.opens_ok, st.opens_denied,
                     st.opens_failed, st.flash_opens, st.devices_revoked,
                     st.log_entries, st.denied_log_entries, st.bytes_on_wire,
                     st.rpc_messages}) {
    HashU64(digest, v);
  }
  for (double v : {st.p50_ms, st.p99_ms}) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    HashU64(digest, bits);
  }
  for (int s = 0; s < fleet.shard_count(); ++s) {
    const KeyService& shard = *fleet.shard(s);
    HashTip(digest, shard.log());
    rep.rows += shard.log().size();
    rep.seals += shard.log().commit_groups();
    KeyService::LoadStats load = shard.load_stats();
    rep.seal_ns += load.seal_ns;
    rep.hot_hits += load.hot_hits;
    rep.hot_misses += load.hot_misses;
    rep.shed += fleet.server(s)->requests_shed();
    rep.reply_cache += fleet.server(s)->reply_cache().size();
  }
  rep.rows -= rows0;
  rep.seals -= seals0;
  rep.seal_ns -= seal_ns0;
  rep.digest = HexDigest(digest);
  return rep;
}

void CheckFleetRep(const FleetRep& rep, Gates& gates) {
  const FleetWorkload::Stats& st = rep.stats;
  gates.Check(st.chains_verified, "every shard's audit chain verifies");
  gates.Check(st.opens_denied == st.denied_log_entries,
              "denied opens (" + std::to_string(st.opens_denied) +
                  ") equal kDenied rows (" +
                  std::to_string(st.denied_log_entries) + ")");
  gates.Check(rep.rows - st.denied_log_entries >= st.opens_ok,
              "every key obtained has an audit row");
  gates.Check(st.opens_ok > 0, "the fleet obtained keys");
}

RunResult RunFleetWorkload(const Args& args) {
  const FleetOptions options = FleetSpec(args.seed);
  RunResult res;
  Gates gates;
  if (!args.trace) {
    // Each repetition provisions a fresh fleet (setup) and runs it (phase):
    // kSetUps of them, and more until --seconds of phase time.
    std::vector<double> setup_s, heap_mb, slice_us;
    int64_t host_ns = 0;
    uint64_t attempted = 0, failed = 0, completed = 0;
    std::string digest;
    int reps = 0;
    while (reps < kSetUps || Seconds(host_ns) < args.seconds) {
      FleetRep rep = RunFleetRep(options, nullptr);
      CheckFleetRep(rep, gates);
      gates.Check(reps == 0 || rep.digest == digest,
                  "repeated fleet runs behave identically");
      digest = rep.digest;
      setup_s.push_back(rep.setup_s);
      heap_mb.push_back(rep.live_heap_mb);
      slice_us.insert(slice_us.end(), rep.slice_us.begin(),
                      rep.slice_us.end());
      host_ns += rep.host_ns;
      attempted += rep.stats.opens_issued;
      failed += rep.stats.opens_failed;
      completed += rep.stats.opens_ok + rep.stats.opens_denied;
      ++reps;
      if (reps == 1) {
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "digest=%s opens=%llu ok=%llu denied=%llu "
                      "virt_ms_p50=%.6f virt_ms_p99=%.6f",
                      rep.digest.c_str(),
                      static_cast<unsigned long long>(rep.stats.opens_issued),
                      static_cast<unsigned long long>(rep.stats.opens_ok),
                      static_cast<unsigned long long>(rep.stats.opens_denied),
                      rep.stats.p50_ms, rep.stats.p99_ms);
        res.info = buf;
      }
    }
    res.attempted = attempted;
    res.failed = failed;
    res.metrics.Set("setup_s", Percentile(setup_s, 0.5), "s");
    res.metrics.Set("ops_per_s",
                    static_cast<double>(completed) / Seconds(host_ns), "1/s");
    res.metrics.Set("op_us_p50", Percentile(slice_us, 0.5), "us");
    res.metrics.Set("op_us_tail", Percentile(slice_us, 0.90), "us");
    res.metrics.Set("live_heap_mb", Percentile(heap_mb, 0.5), "MB");
    res.info += " reps=" + std::to_string(reps) +
                " tail=p90 n=" + std::to_string(slice_us.size());
    res.correct = gates.ok;
    return res;
  }

  FleetRep plain = RunFleetRep(options, nullptr);
  Tracer tracer(size_t{1} << 12);
  FleetRep rep = RunFleetRep(options, &tracer);
  CheckFleetRep(rep, gates);
  gates.Check(rep.digest == plain.digest,
              "traced and untraced runs behave identically");
  gates.Check(rep.spans_ok, "no span's children exceed the span");
  const FleetWorkload::Stats& st = rep.stats;
  const double opens = static_cast<double>(st.opens_issued);
  Metrics& m = res.metrics;
  // The fleet drives the key tier only: the file-system, storage,
  // metadata and replication layers are bypassed and read 0.
  for (const char* name :
       {"keypad.read_us_p50", "keypad.write_us_p50", "keypad.meta_us_p50",
        "keypad.self_us_per_op"}) {
    m.Set(name, 0, "us");
  }
  m.Set("keypad.cache_hit_ratio", 0, "ratio");
  m.Set("keypad.prefetched_per_miss", 0, "ratio");
  m.Set("ibe.locks", 0, "count");
  {
    SecureRandom rng(0x9e9);
    IbePkg pkg(BenchPairingParams(), rng);
    m.Set("ibe.lock_ms", ProbeIbeLockMs(pkg.public_params()), "ms");
  }
  m.Set("metaservice.requests", 0, "count");
  m.Set("blockdev.apply_us_per_op", 0, "us");
  m.Set("blockdev.syncs_per_write", 0, "ratio");
  m.Set("blockdev.write_amp", 0, "ratio");
  m.Set("keyservice.calls_per_op", rep.requests / opens, "ratio");
  m.Set("keyservice.keys_per_call", Ratio(st.opens_ok, rep.requests), "ratio");
  m.Set("keyservice.hot_hit_ratio",
        Ratio(rep.hot_hits, rep.hot_hits + rep.hot_misses), "ratio");
  m.Set("auditlog.rows_per_key",
        Ratio(rep.rows - st.denied_log_entries, st.opens_ok), "ratio");
  m.Set("auditlog.rows_per_seal", Ratio(rep.rows, rep.seals), "ratio");
  m.Set("auditlog.seal_ms", static_cast<double>(rep.seal_ns) * 1e-6, "ms");
  m.Set("replication.deltas_per_write", 0, "ratio");
  m.Set("replication.acks_per_vhour", 0, "1/h");
  m.Set("rpc.requests_per_op", rep.requests / opens, "ratio");
  // Server-side view: the devices' RpcClients are private to the engine.
  m.Set("rpc.attempts_per_call", rep.requests / opens, "ratio");
  m.Set("rpc.shed_frac", Ratio(rep.shed, rep.requests), "ratio");
  m.Set("rpc.reply_cache_entries", rep.reply_cache, "count");
  m.Set("net.bytes_per_op", st.bytes_on_wire / opens, "B");
  m.Set("net.msgs_per_op", st.rpc_messages / opens, "ratio");
  double enc = 0, dec = 0;
  WireValue::Array get_key;
  get_key.push_back(WireValue(AuditId().ToBytes()));
  get_key.push_back(WireValue(static_cast<int64_t>(AccessOp::kDemandFetch)));
  ProbeCodec(options.codec, "key.get", get_key, &enc, &dec);
  m.Set("wire.encode_us", enc, "us");
  m.Set("wire.decode_us", dec, "us");
  m.Set("sim.events_per_op", rep.events / opens, "ratio");
  m.Set("sim.host_ns_per_event",
        static_cast<double>(rep.host_ns) / static_cast<double>(rep.events),
        "ns");
  m.Set("sim.idle_ms_per_vhour", 0, "ms/h");
  m.Set("sim.idle_ms_per_vhour_q1", 0, "ms/h");
  m.Set("sim.idle_ms_per_vhour_q4", 0, "ms/h");
  m.Set("sim.queue_nodes", rep.queue_nodes, "count");
  m.Set("mem.heap_kb_per_device",
        plain.live_heap_mb * 1024.0 / static_cast<double>(st.devices), "KB");
  m.Set("trace.overhead_frac",
        static_cast<double>(rep.host_ns) / static_cast<double>(plain.host_ns) -
            1.0,
        "ratio");
  m.Set("trace.spans", rep.spans, "count");
  if (!args.spans_path.empty()) {
    gates.Check(tracer.WriteTsv(args.spans_path),
                "spans written to " + args.spans_path);
  }
  res.attempted = st.opens_issued;
  res.failed = st.opens_failed;
  res.info = "digest=" + rep.digest;
  res.correct = gates.ok;
  return res;
}

// Runs the production configuration whatever the caller's environment
// says: every KEYPAD_* override is cleared, and the storage backend, which
// has no option field, is selected through its environment knob.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("KEYPAD_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
  setenv("KEYPAD_STORAGE_BACKEND", "journaled", 1);
}

}  // namespace
}  // namespace keypad::perf

int main(int argc, char** argv) {
  using namespace keypad::perf;
  Args args = ParseArgs(argc, argv);
  PinEnvironment();
  RunResult res;
  if (args.workload == "compile_prod") {
    res = RunCompileWorkload(args);
  } else if (args.workload == "fleet_10k") {
    res = RunFleetWorkload(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("%s %s\n", args.workload.c_str(), res.info.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      res.correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), res.metrics.Json().c_str());
  return 0;
}
