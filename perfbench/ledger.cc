// Latency-ledger benchmark program: runs one workload against a loopback
// NetServer that serves format-v4 bundle files through a BundleCatalog,
// with clients attached through DasSystem::Remote(), checks every answer
// against plaintext evaluation, and prints one JSON result line.
//
//   ledger --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload but splits each query into timed calls of the library's public
// functions and reports the per-layer metrics. See README.md.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "crypto/aes_kernel.h"
#include "das/das_system.h"
#include "data/healthcare.h"
#include "data/nasa_generator.h"
#include "data/workload.h"
#include "data/xmark_generator.h"
#include "net/catalog.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "obs/trace.h"
#include "ledger_math.h"
#include "storage/serializer.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace {

using namespace xcrypt;
namespace fs = std::filesystem;

// --- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0.0 && argc % 2 == 1;
}

/// Derives independent streams (corpus, queries, per thread) from the one
/// workload seed, so a seed fixes every input of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// CPU time the whole process has used so far, in microseconds: the
/// client, the daemon's threads, and the kernel's loopback work done on
/// their behalf. Time the host takes the CPU away from the VM (steal
/// time) is not counted.
double ProcessCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Wall time and process CPU time since construction or Restart(). The
/// process runs on one CPU (see run.py), so the CPU time of one operation
/// is its wall time less the time the host took that CPU away and any
/// time spent waiting for the disk.
class Meter {
 public:
  struct Reading {
    double cpu_us;
    double wall_us;
  };

  Meter() : cpu_start_(ProcessCpuMicros()) {}
  Reading Read() const {
    const double cpu = ProcessCpuMicros() - cpu_start_;
    return {cpu, wall_.ElapsedMicros()};
  }

 private:
  Stopwatch wall_;
  double cpu_start_;
};

/// Samples of one kind of operation: the process CPU time of each, which
/// the end-to-end metrics report, and its wall time, which the traced
/// pass reports beside them.
struct Samples {
  std::vector<double> cpu_us;
  std::vector<double> wall_us;

  void Add(const Meter::Reading& took) {
    cpu_us.push_back(took.cpu_us);
    wall_us.push_back(took.wall_us);
  }
  void Merge(const Samples& other) {
    cpu_us.insert(cpu_us.end(), other.cpu_us.begin(), other.cpu_us.end());
    wall_us.insert(wall_us.end(), other.wall_us.begin(), other.wall_us.end());
  }
  size_t size() const { return cpu_us.size(); }
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "ledger: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

// --- workload definitions -------------------------------------------------

/// One owner edit from a workload's rotation.
struct Edit {
  enum class Kind { kUpdate, kInsert, kDelete };
  Kind kind = Kind::kUpdate;
  std::string path;  ///< target (update/delete) or parent (insert)
  std::string value;
  Document fragment;
  int expect = 1;  ///< nodes an update/delete must report (-1: any > 0)
};

struct WorkloadSpec {
  std::string name;
  Document doc;
  std::vector<SecurityConstraint> constraints;
  std::vector<SchemeKind> schemes;
  bool block_cache = false;
  int clients = 1;
  /// Tag path of the MIN/MAX/COUNT aggregates; empty picks one per
  /// database (see AggregatesFor).
  std::string aggregate_path;
};

WorkloadSpec MakeSpec(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fig9-cold") {
    NasaConfig config;  // scale 2 of the Figure 9 corpus
    config.datasets = 200;
    config.seed = SubSeed(seed, 1);
    spec.doc = GenerateNasa(config);
    spec.constraints = NasaConstraints();
    spec.schemes = {SchemeKind::kTop, SchemeKind::kSub,
                    SchemeKind::kApproximate, SchemeKind::kOptimal};
  } else if (name == "xmark-hot") {
    XMarkConfig config;  // scale 4
    config.people = 480;
    config.items = 240;
    config.seed = SubSeed(seed, 1);
    spec.doc = GenerateXMark(config);
    spec.constraints = XMarkConstraints();
    spec.schemes = {SchemeKind::kOptimal};
    spec.block_cache = true;
    spec.clients = 2;
  } else if (name == "hospital-update-mix") {
    spec.doc = BuildHospital(200, SubSeed(seed, 1));
    spec.constraints = HealthcareConstraints();
    spec.schemes = {SchemeKind::kOptimal};
    spec.block_cache = true;
    spec.aggregate_path = "//insurance/policy#";
  } else {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return spec;
}

// --- the deployment: hosting, v4 files, catalog, daemon, clients ----------

struct Db {
  std::string name;
  SchemeKind scheme = SchemeKind::kOptimal;
  std::unique_ptr<DasSystem> owner;
  /// A second stub on the same database, used only by the traced pass to
  /// call RemoteServerEngine::Execute directly.
  std::unique_ptr<net::RemoteServerEngine> stub;
};

struct Deployment {
  std::string dir;
  std::unique_ptr<net::NetServer> server;  // destroyed after the clients
  std::vector<Db> dbs;
  double setup_cpu_s = 0.0;
  double setup_wall_s = 0.0;
  double save_us = 0.0;    ///< mean SaveBundle time per database
  double attach_us = 0.0;  ///< mean first-query time per database
  int64_t stored_bytes = 0;
  int64_t plain_bytes = 0;

  ~Deployment() {
    dbs.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::string Secret(const std::string& workload, uint64_t seed, int salt) {
  return "ledger-" + workload + "-" + std::to_string(seed) + "-" +
         std::to_string(salt);
}

/// Builds a complete deployment in `dir`; the whole of it is set-up time.
/// `first_query` runs once per database as the attach probe.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec, uint64_t seed,
                                   const std::string& dir,
                                   const std::string& first_query) {
  auto dep = std::make_unique<Deployment>();
  dep->dir = dir;
  fs::create_directories(dir);
  Meter total;
  ClientTuning tuning;
  tuning.block_cache_bytes = spec.block_cache ? (8 << 20) : 0;
  // run.py pins the process to one CPU; a one-thread shared pool keeps
  // crypto and joins from fanning out over threads that can only take
  // turns on it.
  tuning.threads = 1;
  for (SchemeKind scheme : spec.schemes) {
    Db db;
    db.scheme = scheme;
    db.name = std::string("db_") + SchemeKindName(scheme);
    auto das = DasSystem::Host(spec.doc, spec.constraints, scheme,
                               Secret(spec.name, seed, 0), tuning);
    if (!das.ok()) Die("host", das.status());
    db.owner = std::make_unique<DasSystem>(std::move(*das));
    const std::string path = dir + "/" + db.name + ".xcr";
    Stopwatch save;
    const Status saved = SaveBundle(
        db.owner->client().database(), db.owner->client().metadata(), path,
        db.name, db.owner->bundle_generation(), BundleFormat::kV4);
    if (!saved.ok()) Die("save", saved);
    dep->save_us += save.ElapsedMicros();
    dep->stored_bytes += static_cast<int64_t>(fs::file_size(path));
    dep->plain_bytes += static_cast<int64_t>(SerializeXml(spec.doc).size());
    dep->dbs.push_back(std::move(db));
  }
  auto catalog = net::BundleCatalog::Open(dir);
  if (!catalog.ok()) Die("catalog open", catalog.status());
  net::NetServerOptions options;
  // The load comes from this one process: one daemon worker per client
  // thread and one I/O thread.
  options.io_threads = 1;
  options.num_threads = spec.clients;
  // Every workload's owner edits its database, so every daemon accepts
  // delta pushes.
  options.accept_updates = true;
  auto server = net::NetServer::Serve(net::ServerConfig::ForCatalog(
      std::move(*catalog), "127.0.0.1", 0, options));
  if (!server.ok()) Die("serve", server.status());
  dep->server = std::move(*server);
  for (Db& db : dep->dbs) {
    const Status connected =
        db.owner->Remote().Connect("127.0.0.1", dep->server->port(), db.name);
    if (!connected.ok()) Die("connect", connected);
    Stopwatch attach;
    auto run = db.owner->Execute(first_query);
    if (!run.ok()) Die("attach query", run.status());
    dep->attach_us += attach.ElapsedMicros();
  }
  const Meter::Reading took = total.Read();
  dep->setup_cpu_s = took.cpu_us / 1e6;
  dep->setup_wall_s = took.wall_us / 1e6;
  dep->save_us /= static_cast<double>(dep->dbs.size());
  dep->attach_us /= static_cast<double>(dep->dbs.size());
  return dep;
}

// --- measurement state ----------------------------------------------------

/// Per-layer sums for the traced pass: each entry is a sum of per-call
/// values and the number of calls it covers, reported as a mean.
struct LayerSums {
  std::map<std::string, std::pair<double, int64_t>> sums;

  void Add(const std::string& name, double value) {
    auto& slot = sums[name];
    slot.first += value;
    slot.second += 1;
  }
  void Merge(const LayerSums& other) {
    for (const auto& [name, slot] : other.sums) {
      sums[name].first += slot.first;
      sums[name].second += slot.second;
    }
  }
  double Mean(const std::string& name) const {
    auto it = sums.find(name);
    if (it == sums.end() || it->second.second == 0) return 0.0;
    return it->second.first / static_cast<double>(it->second.second);
  }
};

/// Everything one client thread measured.
struct Tally {
  Samples query;
  Samples aggregate;
  Samples update;
  int64_t query_bytes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t known_faults = 0;  ///< failures of the known-fault probe
  // Traced-pass calibration only (never merged across threads).
  Samples untraced;
  std::vector<double> traced_us;
  LayerSums layers;

  void Merge(const Tally& other) {
    query.Merge(other.query);
    aggregate.Merge(other.aggregate);
    update.Merge(other.update);
    query_bytes += other.query_bytes;
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    known_faults += other.known_faults;
    layers.Merge(other.layers);
  }
};

void Fail(Tally* tally, const std::string& what, const std::string& detail) {
  ++tally->failed;
  std::fprintf(stderr, "ledger: FAILED %s: %s\n", what.c_str(),
               detail.c_str());
}

void Wrong(Tally* tally, const std::string& what) {
  ++tally->failed;
  ++tally->wrong;
  std::fprintf(stderr, "ledger: WRONG ANSWER %s\n", what.c_str());
}

/// A query together with its expected answer, computed by plain XPath
/// evaluation on the owner's current plaintext (no DSI, OPESS, crypto or
/// wire involved).
struct CheckedQuery {
  std::string text;
  PathExpr expr;
  std::vector<std::string> expected;
};

std::vector<CheckedQuery> Checked(const std::vector<WorkloadQuery>& queries,
                                  const Document& plaintext) {
  std::vector<CheckedQuery> out;
  for (const WorkloadQuery& q : queries) {
    out.push_back(
        {q.text, q.expr, GroundTruth(plaintext, q.expr).SerializedSorted()});
  }
  return out;
}

double Sum(const std::vector<obs::PhaseTiming>& phases,
           const std::string& name) {
  double total = 0.0;
  for (const obs::PhaseTiming& p : phases) {
    if (p.name == name) total += p.elapsed_us;
  }
  return total;
}

/// Times the pieces of the client's decrypt step on the shipped blocks:
/// the CBC decrypt alone (crypto.aes_us) and the whole DecryptBlock, whose
/// remainder is XML parsing of the block plaintext (xml.block_parse_us).
void TimeBlockDecrypt(const Client& client, const ServerResponse& response,
                      LayerSums* layers) {
  static const uint8_t kRoundKeys[176] = {};
  static const uint8_t kIv[16] = {};
  double aes_us = 0.0;
  double decrypt_us = 0.0;
  std::vector<uint8_t> out;
  for (const EncryptedBlock& block : response.blocks) {
    const size_t nblocks = block.ciphertext.size() / 16;
    out.resize(nblocks * 16);
    Stopwatch aes;
    AesKernel().cbc_decrypt(kRoundKeys, kIv, block.ciphertext.data(),
                            out.data(), nblocks);
    aes_us += aes.ElapsedMicros();
    Stopwatch whole;
    auto plain = DecryptBlock(block, client.keys());
    decrypt_us += whole.ElapsedMicros();
    if (!plain.ok()) Die("DecryptBlock", plain.status());
  }
  layers->Add("crypto.aes_us", aes_us);
  layers->Add("xml.block_parse_us", std::max(0.0, decrypt_us - aes_us));
}

/// One query through DasSystem::Execute, with the wall time the user sees.
/// In the traced pass every query instead goes through the ledger: the
/// protocol re-enacted as timed calls into each module's public functions,
/// against the same client state and the same daemon.
class QueryRunner {
 public:
  QueryRunner(const Db* db, bool traced) : db_(db), traced_(traced) {}

  void Run(const CheckedQuery& q, Tally* tally) {
    ++tally->attempted;
    if (traced_) {
      RunLedger(q, tally);
    } else {
      RunPlain(q, tally, &tally->query);
    }
  }

  /// What the traced pass's calibration measured.
  struct Calibration {
    double untraced_mean_us = 0.0;  ///< plain DasSystem::Execute
    double ledger_mean_us = 0.0;    ///< summed ledger layer calls
    double trace_overhead_us = 0.0;
  };

  /// The traced pass's calibration: the same warm queries, each run
  /// plainly, with an obs::Trace, and through the ledger, in rotating
  /// order. The trace overhead is the median, over every (query, repeat),
  /// of the traced minus the plain wall time of that one query, so
  /// differences between the queries' own costs cancel.
  Calibration Calibrate(const std::vector<CheckedQuery>& queries, int repeats,
                        Tally* tally) {
    Tally cal;
    std::vector<double> overhead;
    for (int r = 0; r < repeats; ++r) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t plain_before = cal.untraced.size();
        const size_t traced_before = cal.traced_us.size();
        for (int k = 0; k < 3; ++k) {
          ++cal.attempted;
          switch ((r + i + k) % 3) {
            case 0:
              RunPlain(queries[i], &cal, &cal.untraced);
              break;
            case 1:
              RunTraced(queries[i], &cal);
              break;
            default:
              RunLedger(queries[i], &cal);
              break;
          }
        }
        if (cal.untraced.size() > plain_before &&
            cal.traced_us.size() > traced_before) {
          overhead.push_back(cal.traced_us.back() -
                             cal.untraced.wall_us.back());
        }
      }
    }
    tally->attempted += cal.attempted;
    tally->failed += cal.failed;
    tally->wrong += cal.wrong;
    Calibration out;
    out.untraced_mean_us = perfbench::Mean(cal.untraced.wall_us);
    out.ledger_mean_us = cal.layers.Mean("ledger.sum_us");
    out.trace_overhead_us = perfbench::Percentile(overhead, 0.5);
    return out;
  }

 private:
  void Check(const CheckedQuery& q, const QueryAnswer& answer, Tally* tally) {
    const std::vector<std::string> got = answer.SerializedSorted();
    if (got == q.expected) return;
    Wrong(tally, q.text + " (" + std::to_string(got.size()) + " nodes, " +
                     std::to_string(q.expected.size()) + " expected)");
  }

  void RunPlain(const CheckedQuery& q, Tally* tally, Samples* samples) {
    Meter meter;
    auto run = db_->owner->Execute(q.text);
    const Meter::Reading took = meter.Read();
    if (!run.ok()) return Fail(tally, q.text, run.status().ToString());
    samples->Add(took);
    tally->query_bytes += run->engine_stats.bytes_received;
    Check(q, run->answer, tally);
  }

  void RunTraced(const CheckedQuery& q, Tally* tally) {
    obs::Trace trace;
    obs::QueryContext ctx;
    ctx.trace = &trace;
    Stopwatch watch;
    auto run = db_->owner->Execute(q.text, &ctx);
    const double us = watch.ElapsedMicros();
    if (!run.ok()) return Fail(tally, q.text, run.status().ToString());
    tally->traced_us.push_back(us);
    Check(q, run->answer, tally);
  }

  void RunLedger(const CheckedQuery& q, Tally* tally) {
    const Client& client = db_->owner->client();
    LayerSums& L = tally->layers;
    Stopwatch watch;
    auto path = ParseXPath(q.text);
    const double parse_us = watch.ElapsedMicros();
    if (!path.ok()) return Fail(tally, q.text, path.status().ToString());
    watch.Restart();
    auto translated = client.Translate(*path);
    const double translate_us = watch.ElapsedMicros();
    if (!translated.ok()) {
      return Fail(tally, q.text, translated.status().ToString());
    }
    watch.Restart();
    const CachedBlockSet cache_set = client.AdvertiseCachedBlocks();
    const double probe_us = watch.ElapsedMicros();
    ExecOptions exec;
    exec.cached_blocks = cache_set.adverts;
    watch.Restart();
    auto result = db_->stub->Execute(*translated, exec);
    const double round_trip_us = watch.ElapsedMicros();
    if (!result.ok()) return Fail(tally, q.text, result.status().ToString());
    obs::Trace trace;
    double decrypt_us = 0.0;
    watch.Restart();
    auto answer = client.PostProcess(*path, result->response, &decrypt_us,
                                     &trace, &cache_set);
    const double post_us = watch.ElapsedMicros();
    if (!answer.ok()) return Fail(tally, q.text, answer.status().ToString());
    Check(q, *answer, tally);
    L.Add("ledger.sum_us",
          parse_us + translate_us + probe_us + round_trip_us + post_us);

    const ServerResponse& response = result->response;
    const EngineCallStats& stats = result->stats;
    L.Add("xpath.parse_us", parse_us);
    L.Add("core.translate_us", translate_us);
    L.Add("core.cache_probe_us", probe_us);
    L.Add("net.round_trip_us", round_trip_us);
    L.Add("net.server_process_us", stats.server_process_us);
    L.Add("net.transport_us",
          std::max(0.0, round_trip_us - stats.server_process_us));
    L.Add("net.bytes_up", static_cast<double>(stats.bytes_sent));
    L.Add("net.bytes_down", static_cast<double>(stats.bytes_received));
    L.Add("core.server.index_lookup_us",
          Sum(stats.server_phases, "index-lookup"));
    L.Add("core.server.structural_join_us",
          Sum(stats.server_phases, "structural-join"));
    L.Add("core.server.predicate_batch_us",
          Sum(stats.server_phases, "predicate-batch"));
    L.Add("core.server.assemble_us", Sum(stats.server_phases, "assemble"));
    L.Add("core.decrypt_us", trace.TotalUs("decrypt"));
    L.Add("core.splice_us", trace.TotalUs("splice"));
    L.Add("core.requery_us", trace.TotalUs("postprocess"));
    L.Add("core.cached_stubs", static_cast<double>(response.cached_ids.size()));
    L.Add("core.blocks_shipped", static_cast<double>(response.blocks.size()));
    // Outside the ledger's sum: the same client-side steps re-run on their
    // own, to split what the "decrypt" span and PostProcess lump together.
    if (!response.skeleton_xml.empty()) {
      watch.Restart();
      auto skeleton = ParseXml(response.skeleton_xml);
      L.Add("xml.skeleton_parse_us", watch.ElapsedMicros());
      if (!skeleton.ok()) Die("skeleton parse", skeleton.status());
    } else {
      L.Add("xml.skeleton_parse_us", 0.0);
    }
    TimeBlockDecrypt(client, response, &L);
  }

  const Db* db_;
  bool traced_;
};

// --- aggregates and edits -------------------------------------------------

struct AggregateCheck {
  std::string path;
  AggregateKind kind;
};

/// MIN, MAX and COUNT over `fixed_path`, or when it is empty over one
/// value-indexed encrypted leaf tag of the database (the first in document
/// order), or a public leaf tag when the scheme leaves none encrypted.
std::vector<AggregateCheck> AggregatesFor(const DasSystem& das,
                                          const std::string& fixed_path) {
  std::string chosen = fixed_path;
  if (chosen.empty()) {
    const Document& doc = das.client().original();
    std::set<std::string> seen;
    std::string fallback;
    for (NodeId id : doc.PreOrder()) {
      const Node& n = doc.node(id);
      if (!doc.IsLeaf(id) || n.is_attribute || !seen.insert(n.tag).second) {
        continue;
      }
      const std::string path = "//" + n.tag;
      auto expr = ParseXPath(path);
      if (!expr.ok()) continue;
      auto token = das.client().AggregateIndexToken(*expr);
      if (!token.ok()) continue;
      if (!token->empty()) {
        chosen = path;
        break;
      }
      if (fallback.empty()) fallback = path;
    }
    if (chosen.empty()) chosen = fallback;
  }
  return {{chosen, AggregateKind::kMin},
          {chosen, AggregateKind::kMax},
          {chosen, AggregateKind::kCount}};
}

/// COUNT reports its value through `count`; MIN/MAX through `value`.
bool SameAggregate(AggregateKind kind, const AggregateAnswer& got,
                   const AggregateAnswer& expected) {
  return kind == AggregateKind::kCount ? got.count == expected.count
                                       : got.value == expected.value;
}

void RunAggregate(DasSystem& das, const AggregateCheck& agg, Tally* tally) {
  ++tally->attempted;
  const std::string what =
      std::string(AggregateKindName(agg.kind)) + "(" + agg.path + ")";
  Meter meter;
  auto run = das.ExecuteAggregate(agg.path, agg.kind);
  const Meter::Reading took = meter.Read();
  if (!run.ok()) return Fail(tally, what, run.status().ToString());
  tally->aggregate.Add(took);
  auto expr = ParseXPath(agg.path);
  const AggregateAnswer expected =
      GroundTruthAggregate(das.client().original(), *expr, agg.kind);
  if (!SameAggregate(agg.kind, run->answer, expected)) Wrong(tally, what);
}

/// The read workloads' owner edits: insert, change and delete a one-leaf
/// note under the document root, in turn. The note touches no existing
/// block (so the read workloads' caches stay as they were) while still
/// running the whole delta build, push and catalog apply.
class NoteEdits {
 public:
  explicit NoteEdits(const Document& doc)
      : root_("/" + doc.node(doc.root()).tag) {}

  static constexpr int kKinds = 3;

  Edit Next(uint64_t round) const {
    Edit e;
    const std::string n = std::to_string(round);
    switch (round % kKinds) {
      case 0: {
        e.kind = Edit::Kind::kInsert;
        e.path = root_;
        const NodeId note = e.fragment.AddRoot("ledgernote");
        e.fragment.AddLeaf(note, "serial", n);
        break;
      }
      case 1:
        e.kind = Edit::Kind::kUpdate;
        e.path = "//ledgernote/serial";
        e.value = "s" + n;
        break;
      default:
        e.kind = Edit::Kind::kDelete;
        e.path = "//ledgernote";
        break;
    }
    return e;
  }

 private:
  std::string root_;
};

/// The hospital owner's four edit kinds: one patient's age (a single
/// public leaf), the hot tag //doctor, an inserted patient with its SSN,
/// pname, treat, insurance and age leaves, and the delete of that patient.
/// None of their inputs depend on the seed. Inserted SSNs (seven digits)
/// and the inserted age (95) lie outside BuildHospital's value ranges, so
/// the delete binds exactly the inserted patient.
class HospitalEdits {
 public:
  explicit HospitalEdits(const Document& doc) {
    // A patient whose SSN is unique, so the age update binds one node.
    std::map<std::string, int> counts;
    XPathEvaluator eval(doc);
    auto ssn_path = ParseXPath("//patient/SSN");
    for (NodeId id : eval.Evaluate(*ssn_path)) counts[doc.node(id).value]++;
    for (const auto& [ssn, count] : counts) {
      if (count == 1) {
        ssn_ = ssn;
        break;
      }
    }
  }

  /// The age the update of `round` gives the chosen patient.
  static std::string AgeOf(uint64_t round) {
    return std::to_string(20 + round % 60);
  }

  Edit UpdateAge(uint64_t round) const {
    Edit e;
    e.kind = Edit::Kind::kUpdate;
    e.path = "//patient[SSN='" + ssn_ + "']/age";
    e.value = AgeOf(round);
    return e;
  }

  static Edit UpdateDoctors(uint64_t round) {
    Edit e;
    e.kind = Edit::Kind::kUpdate;
    e.path = "//doctor";
    e.value = "Dr" + std::to_string(round);
    e.expect = -1;
    return e;
  }

  static Edit InsertPatient(uint64_t round) {
    Edit e;
    e.kind = Edit::Kind::kInsert;
    e.path = "/hospital";
    Document& f = e.fragment;
    const NodeId p = f.AddRoot("patient");
    f.AddLeaf(p, "SSN", Ssn(round));
    f.AddLeaf(p, "pname", "Zoe");
    const NodeId treat = f.AddChild(p, "treat");
    f.AddLeaf(treat, "disease", "asthma");
    f.AddLeaf(treat, "doctor", "Chen");
    const NodeId ins = f.AddChild(p, "insurance");
    f.AddAttribute(ins, "coverage", "50000");
    f.AddLeaf(ins, "policy#", std::to_string(10000 + round % 90000));
    f.AddLeaf(p, "age", "95");
    return e;
  }

  static Edit DeletePatient(uint64_t round) {
    Edit e;
    e.kind = Edit::Kind::kDelete;
    e.path = "//patient[SSN='" + Ssn(round) + "']";
    return e;
  }

 private:
  static std::string Ssn(uint64_t round) {
    return std::to_string(1000000 + round % 9000000);
  }

  std::string ssn_;
};

/// Applies one edit through the owner's DasSystem (delta build + wire-v5
/// push + catalog ApplyDelta). The traced pass also reads the bytes the
/// daemon received for it.
void RunEdit(DasSystem& das, const Edit& edit, net::NetServer* server,
             bool traced, Tally* tally) {
  ++tally->attempted;
  const uint64_t before = traced ? server->stats().bytes_received : 0;
  Meter meter;
  int touched = 1;
  Status status = Status::Ok();
  switch (edit.kind) {
    case Edit::Kind::kUpdate: {
      auto n = das.UpdateValues(edit.path, edit.value);
      status = n.status();
      if (n.ok()) touched = *n;
      break;
    }
    case Edit::Kind::kInsert:
      status = das.InsertSubtree(edit.path, edit.fragment);
      break;
    case Edit::Kind::kDelete: {
      auto n = das.DeleteSubtrees(edit.path);
      status = n.status();
      if (n.ok()) touched = *n;
      break;
    }
  }
  const Meter::Reading took = meter.Read();
  if (!status.ok()) return Fail(tally, "edit " + edit.path, status.ToString());
  tally->update.Add(took);
  if (traced) {
    tally->layers.Add("update.delta_bytes",
                      static_cast<double>(server->stats().bytes_received -
                                          before));
  }
  if (edit.expect >= 0 ? touched != edit.expect : touched <= 0) {
    Wrong(tally, "edit " + edit.path + " touched " + std::to_string(touched));
  }
}

// --- daemon counters --------------------------------------------------------

const obs::HistogramSnapshot* FindHistogram(const obs::MetricsSnapshot& s,
                                            const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

uint64_t FindCounter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t FindGauge(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0;
}

/// Daemon counters read when a workload's timed phase starts and again when
/// it ends, so the plan-cache ratio and the apply time describe that phase
/// alone: not set-up, warm-up, the final cross-check or the calibration.
struct DaemonWindow {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t applies = 0;
  uint64_t apply_sum_us = 0;

  static DaemonWindow Read(const net::NetServer& server) {
    const obs::MetricsSnapshot s = server.SnapshotMetrics();
    DaemonWindow w;
    w.plan_hits = FindCounter(s, "plan_cache.hit");
    w.plan_misses = FindCounter(s, "plan_cache.miss");
    if (const obs::HistogramSnapshot* h = FindHistogram(s, "update_us")) {
      w.applies = h->count;
      w.apply_sum_us = h->sum_us;
    }
    return w;
  }

  DaemonWindow Since(const DaemonWindow& start) const {
    DaemonWindow d;
    d.plan_hits = plan_hits - start.plan_hits;
    d.plan_misses = plan_misses - start.plan_misses;
    d.applies = applies - start.applies;
    d.apply_sum_us = apply_sum_us - start.apply_sum_us;
    return d;
  }

  double PlanHitRatio() const {
    const uint64_t lookups = plan_hits + plan_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(plan_hits) /
                              static_cast<double>(lookups);
  }

  double ApplyMeanUs() const {
    return applies == 0 ? 0.0
                        : static_cast<double>(apply_sum_us) /
                              static_cast<double>(applies);
  }
};

// --- workloads ------------------------------------------------------------

struct Run {
  Tally tally;
  Meter::Reading query_phase{0.0, 0.0};  ///< the phase queries ran in
  int64_t queries = 0;
  DaemonWindow daemon;  ///< the daemon's counters over the timed phase
};

size_t MinQueries() { return perfbench::MinSamplesFor(0.90, 10); }
size_t MinAggregates() { return perfbench::MinSamplesFor(0.50, 10); }
size_t MinUpdates() { return perfbench::MinSamplesFor(0.90, 10); }

/// Hard stop for a phase of `seconds` that has not yet collected its
/// minimum samples, so that run.py's processes together end inside the
/// run's time limit.
double PhaseCap(double seconds) { return 2.0 * seconds + 5.0; }

/// The owner phase of the two read workloads: rounds of MIN/MAX/COUNT plus
/// one note edit on the opt database, after the reads, until the phase's
/// time is up and enough edits and aggregates were measured. It is there
/// because every run reports every end-to-end metric, the update and
/// aggregate latencies included. Each round holds an odd number of
/// operation kinds (3 aggregates, 3 edit kinds), so the median of
/// equal-sized groups falls inside a group, not on the edge between two.
void OwnerPhase(Deployment& dep, double seconds, bool traced, Tally* tally) {
  Db& db = dep.dbs.back();
  const auto aggs = AggregatesFor(*db.owner, "");
  const NoteEdits edits(db.owner->client().original());
  Stopwatch phase;
  for (uint64_t round = 0;; ++round) {
    for (const AggregateCheck& agg : aggs) RunAggregate(*db.owner, agg, tally);
    RunEdit(*db.owner, edits.Next(round), dep.server.get(), traced, tally);
    // Whole rotations only, so the database ends as it started.
    if ((round + 1) % NoteEdits::kKinds != 0) continue;
    const double elapsed = phase.ElapsedMicros() / 1e6;
    const bool enough = tally->update.size() >= MinUpdates() &&
                        tally->aggregate.size() >= MinAggregates();
    if ((elapsed >= seconds && enough) || elapsed >= PhaseCap(seconds)) break;
  }
}

/// fig9-cold: one closed-loop client cycles scheme by scheme through
/// fresh Qs/Qm/Ql batches of 10 queries; the block cache is off.
Run RunFig9(Deployment& dep, const WorkloadSpec& spec, uint64_t seed,
            double seconds, bool traced) {
  Run run;
  std::vector<QueryRunner> runners;
  for (const Db& db : dep.dbs) runners.emplace_back(&db, traced);
  const WorkloadKind kinds[] = {WorkloadKind::kQs, WorkloadKind::kQm,
                                WorkloadKind::kQl};
  const double read_seconds = seconds * 0.75;
  const DaemonWindow daemon_start = DaemonWindow::Read(*dep.server);
  for (uint64_t round = 0;; ++round) {
    const size_t scheme = round % dep.dbs.size();
    const WorkloadKind kind = kinds[(round / dep.dbs.size()) % 3];
    // Inputs and their expected answers are prepared outside the timed
    // part of the loop.
    const auto batch = Checked(
        BuildWorkload(spec.doc, kind, 10, SubSeed(seed, 100 + round)),
        spec.doc);
    Meter meter;
    for (const CheckedQuery& q : batch) runners[scheme].Run(q, &run.tally);
    const Meter::Reading took = meter.Read();
    run.query_phase.cpu_us += took.cpu_us;
    run.query_phase.wall_us += took.wall_us;
    run.queries += static_cast<int64_t>(batch.size());
    // Whole cycles (every scheme x every class) only.
    if ((round + 1) % (dep.dbs.size() * 3) != 0) continue;
    const double spent = run.query_phase.wall_us / 1e6;
    if ((spent >= read_seconds &&
         static_cast<size_t>(run.queries) >= MinQueries()) ||
        spent >= PhaseCap(read_seconds)) {
      break;
    }
  }
  OwnerPhase(dep, seconds - read_seconds, traced, &run.tally);
  run.daemon = DaemonWindow::Read(*dep.server).Since(daemon_start);
  return run;
}

/// A query pool dealt round-robin by output tag from a larger draw of
/// `BuildWorkload`, so every seed's pool holds the tags in near-equal
/// shares. Answer sizes depend mostly on the output tag, and a pool that
/// happened to hold many queries on one broad tag would move the tail.
std::vector<WorkloadQuery> BalancedPool(const Document& doc, WorkloadKind kind,
                                        int count, uint64_t seed) {
  std::map<std::string, std::vector<WorkloadQuery>> by_tag;
  for (WorkloadQuery& q : BuildWorkload(doc, kind, 4 * count, seed)) {
    by_tag[q.text.substr(q.text.rfind('/') + 1)].push_back(std::move(q));
  }
  std::vector<WorkloadQuery> pool;
  for (size_t i = 0; static_cast<int>(pool.size()) < count; ++i) {
    bool any = false;
    for (auto& [tag, queries] : by_tag) {
      if (i < queries.size() && static_cast<int>(pool.size()) < count) {
        pool.push_back(queries[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return pool;
}

/// xmark-hot: two closed-loop client threads share one DasSystem (and so
/// its multiplexed connection), picking Zipf(0.8)-skewed repeats from a
/// pool of 160 Qm/Ql queries after a warm-up pass. Each thread re-deals
/// which queries hold the popular ranks every 20 picks: the picks stay
/// skewed over any short window, while over a run every pooled query is
/// about equally likely, so the latency mix does not hang on which few
/// queries a seed happens to rank first. The pool fits the block cache and
/// the 256-entry plan cache.
Run RunXMarkHot(Deployment& dep, const WorkloadSpec& spec, uint64_t seed,
                double seconds, bool traced) {
  Run run;
  const Db& db = dep.dbs[0];
  auto pool = BalancedPool(spec.doc, WorkloadKind::kQm, 80, SubSeed(seed, 2));
  auto ql = BalancedPool(spec.doc, WorkloadKind::kQl, 80, SubSeed(seed, 3));
  pool.insert(pool.end(), ql.begin(), ql.end());
  const std::vector<CheckedQuery> queries = Checked(pool, spec.doc);
  {
    QueryRunner warm(&db, false);
    Tally ignored;
    for (const CheckedQuery& q : queries) warm.Run(q, &ignored);
    if (ignored.failed > 0) {
      std::fprintf(stderr, "ledger: warm-up pass failed\n");
      std::exit(2);
    }
  }
  const double read_seconds = seconds * 0.75;
  constexpr int kRound = 20;  // queries per thread between time checks
  std::atomic<bool> stop{false};
  std::atomic<int64_t> done{0};
  std::vector<Tally> tallies(spec.clients);
  std::vector<std::thread> threads;
  const DaemonWindow daemon_start = DaemonWindow::Read(*dep.server);
  const Meter phase;
  for (int t = 0; t < spec.clients; ++t) {
    threads.emplace_back([&, t] {
      QueryRunner runner(&db, traced);
      Rng rng(SubSeed(seed, 10 + t));
      const int n = static_cast<int>(queries.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<int> ranks = rng.Permutation(n);
        for (int i = 0; i < kRound; ++i) {
          runner.Run(queries[ranks[rng.Zipf(n, 0.8)]], &tallies[t]);
        }
        const int64_t total = done.fetch_add(kRound) + kRound;
        const double elapsed = phase.Read().wall_us / 1e6;
        if ((elapsed >= read_seconds &&
             static_cast<size_t>(total) >= MinQueries()) ||
            elapsed >= PhaseCap(read_seconds)) {
          stop.store(true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  run.query_phase = phase.Read();
  for (const Tally& t : tallies) run.tally.Merge(t);
  run.queries = done.load();
  OwnerPhase(dep, seconds - read_seconds, traced, &run.tally);
  run.daemon = DaemonWindow::Read(*dep.server).Since(daemon_start);
  return run;
}

/// The hospital workload's known-fault probe, run while the inserted
/// patient is present. The insert leaves `age` a mixed tag (public in the
/// corpus, encrypted in the new patient), so an equality on age translates
/// to an index range plus a plaintext comparison. Every literal missing
/// from the one-entry value index translates to the same empty range, and
/// the daemon's plan-cache key leaves the plaintext literal out, so the
/// second such query of a database generation is answered with the first
/// one's plan. The probe asks for `age` (the chosen patient's current age,
/// so the answer is not empty) and then for age 17, which no patient has.
/// The second answer counts as a failed operation when it repeats the
/// first; any other mismatch is a wrong answer.
void RunFaultProbe(const DasSystem& das, const std::string& age,
                   Tally* tally) {
  const Document& now = das.client().original();
  const std::string queries[2] = {"//patient[age='" + age + "']/age",
                                  "//patient[age='17']/age"};
  std::vector<std::string> answers[2];
  for (int i = 0; i < 2; ++i) {
    ++tally->attempted;
    auto run = das.Execute(queries[i]);
    if (!run.ok()) {
      Fail(tally, queries[i], run.status().ToString());
      continue;
    }
    answers[i] = run->answer.SerializedSorted();
    const auto expr = ParseXPath(queries[i]);
    if (answers[i] == GroundTruth(now, *expr).SerializedSorted()) continue;
    if (i == 1 && answers[1] == answers[0]) {
      ++tally->failed;
      ++tally->known_faults;
    } else {
      Wrong(tally, queries[i]);
    }
  }
}

/// hospital-update-mix: one owner loops over 5 queries, MIN/MAX/COUNT over
/// //insurance/policy# and its edits. The edits rotate over three loops:
/// the age update; the //doctor update; and a patient insert, the
/// known-fault probe, the aggregates on the database that holds the new
/// patient, and the delete of that patient. The seeded queries run only
/// while no inserted patient is present: on that state some seeds' queries
/// meet the probe's fault and others do not (see RunFaultProbe).
Run RunHospital(Deployment& dep, const WorkloadSpec& spec, uint64_t seed,
                double seconds, bool traced) {
  Run run;
  Db& db = dep.dbs[0];
  QueryRunner runner(&db, traced);
  const HospitalEdits edits(spec.doc);
  const auto aggs = AggregatesFor(*db.owner, spec.aggregate_path);
  const WorkloadKind kinds[] = {WorkloadKind::kQs, WorkloadKind::kQm,
                                WorkloadKind::kQl};
  auto aggregates = [&] {
    for (const AggregateCheck& agg : aggs) {
      RunAggregate(*db.owner, agg, &run.tally);
    }
  };
  auto edit = [&](const Edit& e) {
    RunEdit(*db.owner, e, dep.server.get(), traced, &run.tally);
  };
  const DaemonWindow daemon_start = DaemonWindow::Read(*dep.server);
  const Meter phase;
  for (uint64_t round = 0;; ++round) {
    const Document& now = db.owner->client().original();
    const auto batch = Checked(BuildWorkload(now, kinds[(round / 3) % 3], 5,
                                             SubSeed(seed, 100 + round)),
                               now);
    for (const CheckedQuery& q : batch) runner.Run(q, &run.tally);
    run.queries += static_cast<int64_t>(batch.size());
    switch (round % 3) {
      case 0:
        aggregates();
        edit(edits.UpdateAge(round));
        break;
      case 1:
        aggregates();
        edit(HospitalEdits::UpdateDoctors(round));
        break;
      default:
        edit(HospitalEdits::InsertPatient(round));
        RunFaultProbe(*db.owner, HospitalEdits::AgeOf(round - 2), &run.tally);
        aggregates();
        edit(HospitalEdits::DeletePatient(round));
        break;
    }
    // Whole cycles of query class (3) x edit loop (3).
    if ((round + 1) % 9 != 0) continue;
    const double elapsed = phase.Read().wall_us / 1e6;
    const bool enough = static_cast<size_t>(run.queries) >= MinQueries() &&
                        run.tally.update.size() >= MinUpdates();
    if ((elapsed >= seconds && enough) || elapsed >= PhaseCap(seconds)) break;
  }
  run.query_phase = phase.Read();
  run.daemon = DaemonWindow::Read(*dep.server).Since(daemon_start);
  return run;
}

/// The final check: each database's current plaintext is hosted again,
/// in-process, under a different secret, and its answers must equal the
/// daemon-served ones.
void CrossCheck(Deployment& dep, const WorkloadSpec& spec, uint64_t seed,
                Tally* tally) {
  for (Db& db : dep.dbs) {
    const Document& now = db.owner->client().original();
    ClientTuning tuning;
    tuning.block_cache_bytes = 0;
    auto fresh = DasSystem::Host(now, spec.constraints, db.scheme,
                                 Secret(spec.name, seed, 1), tuning);
    if (!fresh.ok()) Die("re-host", fresh.status());
    for (WorkloadKind kind :
         {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}) {
      for (const WorkloadQuery& q :
           BuildWorkload(now, kind, 10, SubSeed(seed, 7))) {
        ++tally->attempted;
        auto served = db.owner->Execute(q.text);
        auto local = fresh->Execute(q.text);
        if (!served.ok() || !local.ok()) {
          Fail(tally, "cross-check " + q.text,
               (served.ok() ? local.status() : served.status()).ToString());
          continue;
        }
        if (served->answer.SerializedSorted() !=
            local->answer.SerializedSorted()) {
          Wrong(tally, "cross-check " + q.text);
        }
      }
    }
    for (const AggregateCheck& agg :
         AggregatesFor(*db.owner, spec.aggregate_path)) {
      ++tally->attempted;
      auto served = db.owner->ExecuteAggregate(agg.path, agg.kind);
      auto local = fresh->ExecuteAggregate(agg.path, agg.kind);
      if (!served.ok() || !local.ok()) {
        Fail(tally, "cross-check aggregate " + agg.path,
             (served.ok() ? local.status() : served.status()).ToString());
        continue;
      }
      if (!SameAggregate(agg.kind, served->answer, local->answer)) {
        Wrong(tally, "cross-check aggregate " + agg.path);
      }
    }
  }
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  const WorkloadSpec spec = MakeSpec(args.workload, args.seed);
  const std::string first_query =
      BuildWorkload(spec.doc, WorkloadKind::kQs, 1, SubSeed(args.seed, 5))
          .at(0)
          .text;

  // Set-up is repeated and its median reported (run.py reports the median
  // over its processes); the last deployment is the one the workload runs
  // against.
  constexpr int kSetups = 3;
  Samples setup;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    dep = Deploy(spec, args.seed, args.workdir + "/setup" + std::to_string(i),
                 first_query);
    setup.Add({dep->setup_cpu_s, dep->setup_wall_s});
  }
  for (Db& db : dep->dbs) {
    auto stub = net::RemoteServerEngine::Connect(
        "127.0.0.1", dep->server->port(), [&] {
          net::RemoteOptions o;
          o.database = db.name;
          return o;
        }());
    if (!stub.ok()) Die("ledger stub", stub.status());
    db.stub = std::move(*stub);
    net::NetCallOptions opts;
    opts.db = db.name;
    const net::NetStats stats = dep->server->stats(opts);
    std::fprintf(stderr,
                 "ledger: %s %s nodes=%d blocks=%llu ciphertext_bytes=%llu "
                 "stored_bytes=%lld\n",
                 spec.name.c_str(), db.name.c_str(), spec.doc.node_count(),
                 static_cast<unsigned long long>(stats.num_blocks),
                 static_cast<unsigned long long>(stats.ciphertext_bytes),
                 static_cast<long long>(dep->stored_bytes));
  }

  Run run;
  if (spec.name == "fig9-cold") {
    run = RunFig9(*dep, spec, args.seed, args.seconds, args.trace);
  } else if (spec.name == "xmark-hot") {
    run = RunXMarkHot(*dep, spec, args.seed, args.seconds, args.trace);
  } else {
    run = RunHospital(*dep, spec, args.seed, args.seconds, args.trace);
  }
  // The cross-check and the traced pass's calibration are checks, not
  // part of the measured operations: they stay out of `attempted` and
  // `failed` (whose share must not depend on how long a run lasted), and
  // any failure among them makes the run incorrect.
  Tally checks;
  CrossCheck(*dep, spec, args.seed, &checks);
  QueryRunner::Calibration calibration;
  if (args.trace) {
    const Document& now = dep->dbs[0].owner->client().original();
    const auto queries = Checked(
        BuildWorkload(now, WorkloadKind::kQm, 10, SubSeed(args.seed, 8)), now);
    QueryRunner plain(&dep->dbs[0], false);
    for (const CheckedQuery& q : queries) plain.Run(q, &checks);
    calibration =
        QueryRunner(&dep->dbs[0], true).Calibrate(queries, 10, &checks);
  }
  // The catalog refreshes its resident-bytes gauge when a database is
  // resolved; resolve each once so the gauge describes the final state.
  for (const Db& db : dep->dbs) {
    net::NetCallOptions opts;
    opts.db = db.name;
    dep->server->stats(opts);
  }
  const obs::MetricsSnapshot daemon = dep->server->SnapshotMetrics();
  const int64_t resident = FindGauge(daemon, "catalog.resident_bytes");
  Tally& t = run.tally;
  std::vector<Metric> metrics;
  // Wall-clock twins of the CPU-time metrics: printed for reading beside
  // them, left out of the result line (on a shared VM they move with the
  // host's load; see README.md).
  std::vector<Metric> wall;
  if (!args.trace) {
    metrics = {
        {"query_cpu_p50_us", perfbench::Percentile(t.query.cpu_us, 0.50),
         "us"},
        {"query_cpu_p90_us", perfbench::Percentile(t.query.cpu_us, 0.90),
         "us"},
        {"queries_per_cpu_s",
         static_cast<double>(run.queries) / (run.query_phase.cpu_us / 1e6),
         "1/s"},
        {"answer_bytes_per_query",
         static_cast<double>(t.query_bytes) /
             static_cast<double>(std::max<size_t>(1, t.query.size())),
         "bytes"},
        {"aggregate_cpu_p50_us",
         perfbench::Percentile(t.aggregate.cpu_us, 0.50), "us"},
        {"update_cpu_p50_us", perfbench::Percentile(t.update.cpu_us, 0.50),
         "us"},
        {"update_cpu_p90_us", perfbench::Percentile(t.update.cpu_us, 0.90),
         "us"},
        {"setup_s", perfbench::Percentile(setup.cpu_us, 0.50), "s"},
        {"server_resident_bytes", static_cast<double>(resident), "bytes"},
        {"stored_bytes_per_plain_byte",
         static_cast<double>(dep->stored_bytes) /
             static_cast<double>(dep->plain_bytes),
         "ratio"},
    };
    wall = {
        {"wall.query_p50_us", perfbench::Percentile(t.query.wall_us, 0.50),
         "us"},
        {"wall.query_p90_us", perfbench::Percentile(t.query.wall_us, 0.90),
         "us"},
        {"wall.queries_per_s",
         static_cast<double>(run.queries) / (run.query_phase.wall_us / 1e6),
         "1/s"},
        {"wall.aggregate_p50_us",
         perfbench::Percentile(t.aggregate.wall_us, 0.50), "us"},
        {"wall.update_p50_us", perfbench::Percentile(t.update.wall_us, 0.50),
         "us"},
        {"wall.update_p90_us", perfbench::Percentile(t.update.wall_us, 0.90),
         "us"},
        {"wall.setup_s", perfbench::Percentile(setup.wall_us, 0.50), "s"},
    };
  } else {
    const LayerSums& L = t.layers;
    const double apply_us = run.daemon.ApplyMeanUs();
    const double stubs = L.Mean("core.cached_stubs");
    const double shipped = L.Mean("core.blocks_shipped");
    // The ledger's layer calls run in sequence and make up one query;
    // their summed mean is compared with the plain DasSystem::Execute on
    // the same calibration queries.
    const double unattributed = perfbench::Unattributed(
        calibration.untraced_mean_us, {calibration.ledger_mean_us});
    const std::vector<std::string> us_layers = {
        "xml.skeleton_parse_us",        "core.server.assemble_us",
        "crypto.aes_us",                "xml.block_parse_us",
        "core.decrypt_us",              "core.server.index_lookup_us",
        "core.server.structural_join_us", "core.server.predicate_batch_us",
        "net.round_trip_us",            "net.server_process_us",
        "net.transport_us",             "core.translate_us",
        "core.cache_probe_us",          "core.splice_us",
        "core.requery_us",              "xpath.parse_us"};
    for (const std::string& name : us_layers) {
      metrics.push_back({name, L.Mean(name), "us"});
    }
    metrics.push_back({"core.block_cache_hit_ratio",
                       stubs + shipped > 0 ? stubs / (stubs + shipped) : 0.0,
                       "ratio"});
    metrics.push_back({"core.cached_stubs", stubs, "count"});
    metrics.push_back({"core.blocks_shipped", shipped, "count"});
    metrics.push_back({"core.server.plan_cache_hit_ratio",
                       run.daemon.PlanHitRatio(), "ratio"});
    metrics.push_back({"net.bytes_up", L.Mean("net.bytes_up"), "bytes"});
    metrics.push_back({"net.bytes_down", L.Mean("net.bytes_down"), "bytes"});
    metrics.push_back({"update.apply_us", apply_us, "us"});
    metrics.push_back(
        {"update.delta_bytes", L.Mean("update.delta_bytes"), "bytes"});
    metrics.push_back({"update.owner_us",
                       perfbench::Mean(t.update.wall_us) - apply_us, "us"});
    metrics.push_back({"storage.save_us", dep->save_us, "us"});
    metrics.push_back({"storage.attach_us", dep->attach_us, "us"});
    metrics.push_back(
        {"storage.resident_bytes",
         static_cast<double>(dep->server->catalog().ResidentBytesTotal()),
         "bytes"});
    metrics.push_back({"ledger.unattributed_us", unattributed, "us"});
    metrics.push_back(
        {"obs.trace_overhead_us", calibration.trace_overhead_us, "us"});
  }
  const bool correct = t.wrong == 0 && checks.failed == 0;
  std::fprintf(stderr,
               "ledger: %s seed=%llu queries=%lld in %.2fs (%.2f CPU s) "
               "aggregates=%zu "
               "edits=%zu attempted=%lld failed=%lld (known fault %lld) "
               "wrong=%lld; checks attempted=%lld failed=%lld\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(run.queries),
               run.query_phase.wall_us / 1e6, run.query_phase.cpu_us / 1e6,
               t.aggregate.size(), t.update.size(),
               static_cast<long long>(t.attempted),
               static_cast<long long>(t.failed),
               static_cast<long long>(t.known_faults),
               static_cast<long long>(t.wrong),
               static_cast<long long>(checks.attempted),
               static_cast<long long>(checks.failed));
  for (const std::vector<Metric>* list : {&metrics, &wall}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %16.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%s\n", Json(metrics, correct, t.attempted, t.failed).c_str());
  std::fflush(stdout);
  dep.reset();
  return correct ? 0 : 1;
}
