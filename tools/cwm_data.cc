// cwm_data — artifact-store management CLI.
//
//   cwm_data import FILE --out OUT.cwg [options]
//       Ingests a SNAP-format edge list ("u v" or "u v p" lines, '#'
//       comments) into the binary graph format. Options:
//         --undirected        add both directions per line
//         --default-prob P    probability for lines without a column
//                             (required for such files unless a --prob
//                             model overwrites probabilities anyway)
//         --prob MODEL        wc | const | trivalency | asis (default
//                             asis: keep the file's probabilities)
//         --prob-value X      probability for --prob const (default 0.01)
//         --seed S            trivalency assignment seed (default 31)
//
//   cwm_data build FAMILY [--nodes N] [--degree D] [--aux X] [--seed S]
//                  [--prob MODEL] [--prob-value X] [--scale X]
//                  [--cache-dir DIR]
//       Synthesizes a registry network family (nethept-like, orkut-like,
//       erdos-renyi, ...) and pre-warms the artifact cache with it —
//       exactly the entry a sweep over the same spec will hit.
//
//   cwm_data list [--cache-dir DIR]
//       Lists cache entries with sizes and recipes/provenance.
//
//   cwm_data info FILE...
//       Prints the header of .cwg/.cwr files.
//
//   cwm_data verify FILE... | verify --cache-dir DIR
//       Full checksum + structural verification.
//
//   cwm_data gc --cache-dir DIR --max-bytes N
//       Deletes oldest entries until the cache fits in N bytes.
//
//   cwm_data doctor [--cache-dir DIR] [--repair]
//       Health-checks every cache entry: full checksum + structural
//       verification, plus (for graphs) a non-empty recipe sidecar.
//       Sick entries are quarantined into <cache>/quarantine/ — the
//       same self-healing path a running sweep takes — or deleted
//       outright with --repair.
//
//   cwm_data gen-delta BASE.cwg --out OUT.cwd --edits N [--seed S]
//       Generates a deterministic churn delta log against a base graph
//       (inserts, deletes, reweights — delta/delta_log.h), recording the
//       base and result content hashes so application is cross-checked.
//
//   cwm_data patch BASE.cwg --delta LOG.cwd [--delta LOG2.cwd ...]
//                  --out OUT.cwg
//       Applies one or more delta logs in order and writes the composed
//       graph plus an OUT.cwg.chain sidecar recording the full delta
//       ancestry (extending BASE's own sidecar when it has one). `info`
//       prints the chain.
//
//   cwm_data compact GRAPH.cwg [--out OUT.cwg]
//       Re-baselines a patched graph: rewrites it as a standalone
//       artifact whose recipe hash folds the delta chain, and drops the
//       chain sidecar. In place without --out.
//
// --cache-dir defaults to $CWM_CACHE_DIR everywhere.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "delta/delta_log.h"
#include "delta/overlay.h"
#include "graph/edge_prob.h"
#include "graph/loader.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "store/artifact_cache.h"
#include "store/format.h"
#include "store/graph_store.h"
#include "store/rr_store.h"

namespace {

using namespace cwm;

int Usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: cwm_data import FILE --out OUT.cwg [--undirected]\n"
      "         [--default-prob P] [--prob wc|const|trivalency|asis]\n"
      "         [--prob-value X] [--seed S]\n"
      "       cwm_data build FAMILY [--nodes N] [--degree D] [--aux X]\n"
      "         [--seed S] [--prob MODEL] [--prob-value X] [--scale X]\n"
      "         [--cache-dir DIR]\n"
      "       cwm_data list [--cache-dir DIR]\n"
      "       cwm_data info FILE...\n"
      "       cwm_data verify FILE... | cwm_data verify --cache-dir DIR\n"
      "       cwm_data gc --cache-dir DIR --max-bytes N\n"
      "       cwm_data doctor [--cache-dir DIR] [--repair]\n"
      "       cwm_data gen-delta BASE.cwg --out OUT.cwd --edits N "
      "[--seed S]\n"
      "       cwm_data patch BASE.cwg --delta LOG.cwd [--delta ...] "
      "--out OUT.cwg\n"
      "       cwm_data compact GRAPH.cwg [--out OUT.cwg]\n");
  return code;
}

/// Flag parsing over argv[2..]: collects positionals, recognizes
/// "--flag value" pairs into `flags` and bare switches into `switches`.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> switches;

  const std::string* Flag(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  /// All values of a repeatable flag (e.g. patch --delta A --delta B).
  std::vector<std::string> FlagValues(const std::string& name) const {
    std::vector<std::string> values;
    for (const auto& [k, v] : flags) {
      if (k == name) values.push_back(v);
    }
    return values;
  }
  bool Switch(const std::string& name) const {
    for (const std::string& s : switches) {
      if (s == name) return true;
    }
    return false;
  }
};

const char* kValueFlags[] = {"--out",        "--default-prob", "--prob",
                             "--prob-value", "--seed",         "--nodes",
                             "--degree",     "--aux",          "--scale",
                             "--cache-dir",  "--max-bytes",    "--delta",
                             "--edits"};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--undirected" || arg == "--repair") {
      out->switches.push_back(arg);
      continue;
    }
    bool matched = false;
    for (const char* flag : kValueFlags) {
      if (arg != flag) continue;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return false;
      }
      out->flags.emplace_back(arg, argv[++i]);
      matched = true;
      break;
    }
    if (matched) continue;
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    out->positional.push_back(arg);
  }
  return true;
}

std::string CacheDirOr(const Args& args) {
  if (const std::string* dir = args.Flag("--cache-dir")) return *dir;
  const char* env = std::getenv("CWM_CACHE_DIR");
  return env != nullptr ? env : "";
}

// Strict numeric parsing: the whole token must consume, so a typo'd
// value errors out instead of silently becoming 0 (e.g. `--default-prob
// O.5` producing a diffusion-impossible p=0 graph, or `gc --max-bytes
// 10GB` truncating to 10 and evicting the whole cache).
bool ParseU64Flag(const Args& args, const char* flag, uint64_t* out) {
  const std::string* value = args.Flag(flag);
  if (value == nullptr) return true;
  errno = 0;
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(value->c_str(), &end, 10);
  // strtoull silently wraps a leading '-' to a huge value; require a
  // digit up front so "-1" errors instead of becoming 2^64 - 1.
  if (value->empty() || !std::isdigit(static_cast<unsigned char>((*value)[0])) ||
      errno != 0 || end == value->c_str() || *end != '\0') {
    std::fprintf(stderr, "%s requires an unsigned integer, got '%s'\n",
                 flag, value->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseDoubleFlag(const Args& args, const char* flag, double min_value,
                     double max_value, double* out) {
  const std::string* value = args.Flag(flag);
  if (value == nullptr) return true;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (errno != 0 || end == value->c_str() || *end != '\0' ||
      !(parsed >= min_value && parsed <= max_value)) {
    std::fprintf(stderr, "%s requires a number in [%g, %g], got '%s'\n",
                 flag, min_value, max_value, value->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseProbModel(const Args& args, ProbModel* model) {
  const std::string* name = args.Flag("--prob");
  if (name == nullptr) return true;
  if (*name == "wc") *model = ProbModel::kWeightedCascade;
  else if (*name == "const") *model = ProbModel::kConstant;
  else if (*name == "trivalency") *model = ProbModel::kTrivalency;
  else if (*name == "asis") *model = ProbModel::kAsIs;
  else {
    std::fprintf(stderr, "unknown --prob model: %s\n", name->c_str());
    return false;
  }
  return true;
}

int CmdImport(const Args& args) {
  if (args.positional.size() != 1) return Usage(2);
  const std::string* out_path = args.Flag("--out");
  if (out_path == nullptr) {
    std::fprintf(stderr, "import requires --out OUT.cwg\n");
    return 2;
  }
  ProbModel model = ProbModel::kAsIs;
  if (!ParseProbModel(args, &model)) return 2;

  LoadOptions options;
  options.undirected = args.Switch("--undirected");
  if (args.Flag("--default-prob") != nullptr) {
    if (!ParseDoubleFlag(args, "--default-prob", 0.0, 1.0,
                         &options.default_prob)) {
      return 2;
    }
  } else if (model != ProbModel::kAsIs) {
    // The model overwrites probabilities; parsing may fill in anything.
    options.default_prob = 0.0;
  }

  StatusOr<Graph> loaded = ReadEdgeList(args.positional[0], options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Graph graph = std::move(loaded).value();
  switch (model) {
    case ProbModel::kWeightedCascade:
      graph = WithWeightedCascade(graph);
      break;
    case ProbModel::kConstant: {
      double prob_value = 0.01;
      if (!ParseDoubleFlag(args, "--prob-value", 0.0, 1.0, &prob_value)) {
        return 2;
      }
      graph = WithConstantProb(graph, prob_value);
      break;
    }
    case ProbModel::kTrivalency: {
      uint64_t seed = 31;
      if (!ParseU64Flag(args, "--seed", &seed)) return 2;
      graph = WithTrivalency(graph, seed);
      break;
    }
    case ProbModel::kAsIs:
      break;
  }

  const Status written = WriteGraphFile(graph, *out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu nodes, %zu edges, hash %s\n", out_path->c_str(),
              graph.num_nodes(), graph.num_edges(),
              HashToHex(GraphContentHash(graph)).c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  if (args.positional.size() != 1) return Usage(2);
  const std::string cache_dir = CacheDirOr(args);
  if (cache_dir.empty()) {
    std::fprintf(stderr,
                 "build requires --cache-dir or CWM_CACHE_DIR (it exists "
                 "to pre-warm the cache)\n");
    return 2;
  }

  NetworkSpec spec;
  spec.family = args.positional[0];
  if (!IsKnownNetworkFamily(spec.family) || spec.family == "edge-list" ||
      spec.family == "theorem2-gadget") {
    std::fprintf(stderr, "unknown (or non-generator) network family: %s\n",
                 spec.family.c_str());
    return 2;
  }
  uint64_t nodes = 0, degree = 0;
  if (!ParseU64Flag(args, "--nodes", &nodes) ||
      !ParseU64Flag(args, "--degree", &degree) ||
      !ParseU64Flag(args, "--seed", &spec.seed) ||
      !ParseDoubleFlag(args, "--aux", 0.0, 1e9, &spec.aux) ||
      !ParseDoubleFlag(args, "--prob-value", 0.0, 1.0, &spec.prob_value) ||
      !ParseProbModel(args, &spec.prob)) {
    return 2;
  }
  spec.num_nodes = nodes;
  spec.degree = degree;
  double scale = 1.0;
  if (!ParseDoubleFlag(args, "--scale", 1e-9, 1e9, &scale)) return 2;

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(cache_dir);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 1;
  }
  const Counter& graph_hits =
      MetricsRegistry::Global().GetCounter("cache.graph_hits");
  const uint64_t hits_before = graph_hits.value();
  StatusOr<Graph> graph = spec.Build(scale, cache.value().get());
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu nodes, %zu edges, hash %s (%s)\n  %s\n",
              spec.Label().c_str(), graph.value().num_nodes(),
              graph.value().num_edges(),
              HashToHex(GraphContentHash(graph.value())).c_str(),
              graph_hits.value() > hits_before ? "already cached" : "stored",
              cache.value()->GraphPathFor(spec.CacheRecipe(scale)).c_str());
  return 0;
}

int CmdList(const Args& args) {
  const std::string cache_dir = CacheDirOr(args);
  if (cache_dir.empty()) {
    std::fprintf(stderr, "list requires --cache-dir or CWM_CACHE_DIR\n");
    return 2;
  }
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(cache_dir);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 1;
  }
  uint64_t total = 0;
  const std::vector<CacheEntry> entries = cache.value()->List();
  for (const CacheEntry& entry : entries) {
    total += entry.bytes;
    std::printf("%-5s %12llu  %s\n      %s\n",
                entry.is_graph ? "graph" : "rr",
                static_cast<unsigned long long>(entry.bytes),
                entry.path.c_str(), entry.recipe.c_str());
  }
  std::printf("%zu entries, %llu bytes\n", entries.size(),
              static_cast<unsigned long long>(total));
  return 0;
}

int InfoOne(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".cwd") {
    StatusOr<DeltaFileHeader> header = ReadDeltaHeader(path);
    if (!header.ok()) {
      std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
      return 1;
    }
    const DeltaFileHeader& h = header.value();
    std::printf("%s: delta v%u, %llu edits, %llu nodes, base=%s result=%s\n",
                path.c_str(), h.version,
                static_cast<unsigned long long>(h.num_edits),
                static_cast<unsigned long long>(h.num_nodes),
                HashToHex(h.base_hash).c_str(),
                h.result_hash != 0 ? HashToHex(h.result_hash).c_str()
                                   : "(unrecorded)");
    return 0;
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".cwr") {
    StatusOr<RrFileHeader> header = ReadRrHeader(path);
    if (!header.ok()) {
      std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
      return 1;
    }
    const RrFileHeader& h = header.value();
    std::printf("%s: rr v%u, %llu sets, %llu members, %llu nodes, graph=%s "
                "seed=%llu source=%s era=%llu\n",
                path.c_str(), h.version,
                static_cast<unsigned long long>(h.num_sets),
                static_cast<unsigned long long>(h.num_members),
                static_cast<unsigned long long>(h.num_nodes),
                HashToHex(h.graph_hash).c_str(),
                static_cast<unsigned long long>(h.sample_seed),
                HashToHex(h.source_id).c_str(),
                static_cast<unsigned long long>(h.era_start));
    return 0;
  }
  StatusOr<GraphFileHeader> header = ReadGraphHeader(path);
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }
  const GraphFileHeader& h = header.value();
  std::printf("%s: graph v%u, %llu nodes, %llu edges, recipe=%s, "
              "content=%s\n",
              path.c_str(), h.version,
              static_cast<unsigned long long>(h.num_nodes),
              static_cast<unsigned long long>(h.num_edges),
              HashToHex(h.recipe_hash).c_str(),
              h.content_hash != 0 ? HashToHex(h.content_hash).c_str()
                                  : "(pre-v1.1 file)");
  // Delta ancestry, when the graph was produced by `patch`.
  const StatusOr<DeltaChainFile> chain = ReadChainSidecar(path);
  if (chain.ok()) {
    std::printf("  delta chain: base=%s\n",
                HashToHex(chain.value().base_hash).c_str());
    for (const DeltaChainLink& link : chain.value().links) {
      std::printf("    delta=%s edits=%llu dirty=%llu result=%s\n",
                  HashToHex(link.log_hash).c_str(),
                  static_cast<unsigned long long>(link.num_edits),
                  static_cast<unsigned long long>(link.dirty_count),
                  HashToHex(link.result_hash).c_str());
    }
  }
  return 0;
}

int VerifyOne(const std::string& path) {
  const std::string ext =
      path.size() > 4 ? path.substr(path.size() - 4) : "";
  const Status status = ext == ".cwr"   ? VerifyRrFile(path)
                        : ext == ".cwd" ? VerifyDeltaFile(path)
                                        : VerifyGraphFile(path);
  if (!status.ok()) {
    std::printf("FAIL  %s: %s\n", path.c_str(), status.ToString().c_str());
    return 1;
  }
  std::printf("OK    %s\n", path.c_str());
  return 0;
}

int CmdVerify(const Args& args) {
  std::vector<std::string> paths = args.positional;
  if (paths.empty()) {
    const std::string cache_dir = CacheDirOr(args);
    if (cache_dir.empty()) {
      std::fprintf(stderr,
                   "verify requires file paths, --cache-dir, or "
                   "CWM_CACHE_DIR\n");
      return 2;
    }
    StatusOr<std::unique_ptr<ArtifactCache>> cache =
        ArtifactCache::Open(cache_dir);
    if (!cache.ok()) {
      std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
      return 1;
    }
    for (const CacheEntry& entry : cache.value()->List()) {
      paths.push_back(entry.path);
    }
  }
  int failures = 0;
  for (const std::string& path : paths) failures += VerifyOne(path);
  std::printf("%zu files, %d failures\n", paths.size(), failures);
  return failures == 0 ? 0 : 1;
}

int CmdGc(const Args& args) {
  const std::string cache_dir = CacheDirOr(args);
  if (cache_dir.empty() || args.Flag("--max-bytes") == nullptr) {
    std::fprintf(stderr, "gc requires --cache-dir (or CWM_CACHE_DIR) and "
                         "--max-bytes N\n");
    return 2;
  }
  uint64_t max_bytes = 0;
  if (!ParseU64Flag(args, "--max-bytes", &max_bytes)) return 2;
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(cache_dir);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 1;
  }
  const GcResult result = cache.value()->Gc(max_bytes);
  std::printf("gc: %llu -> %llu bytes, %zu files removed\n",
              static_cast<unsigned long long>(result.bytes_before),
              static_cast<unsigned long long>(result.bytes_after),
              result.files_removed);
  return 0;
}

int CmdDoctor(const Args& args) {
  const std::string cache_dir = CacheDirOr(args);
  if (cache_dir.empty()) {
    std::fprintf(stderr, "doctor requires --cache-dir or CWM_CACHE_DIR\n");
    return 2;
  }
  const bool repair = args.Switch("--repair");
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(cache_dir);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 1;
  }
  const std::vector<CacheEntry> entries = cache.value()->List();
  std::size_t healthy = 0, sick = 0, quarantined = 0, deleted = 0;
  for (const CacheEntry& entry : entries) {
    Status status = entry.is_graph ? VerifyGraphFile(entry.path)
                                   : VerifyRrFile(entry.path);
    if (status.ok() && entry.is_graph && entry.recipe.empty()) {
      // An orphaned .cwg is unreachable by recipe lookup and GetOrBuild
      // would rebuild over it forever — treat it as sick.
      status = Status::Corruption("missing or empty recipe sidecar");
    }
    if (status.ok()) {
      ++healthy;
      continue;
    }
    ++sick;
    std::printf("SICK  %s: %s\n", entry.path.c_str(),
                status.ToString().c_str());
    if (repair) {
      std::remove(entry.path.c_str());
      if (entry.is_graph) {
        std::remove(
            (entry.path.substr(0, entry.path.size() - 4) + ".recipe")
                .c_str());
      }
      ++deleted;
      std::printf("      deleted\n");
    } else {
      const Status moved = cache.value()->QuarantineEntry(entry.path);
      if (moved.ok()) {
        ++quarantined;
        std::printf("      quarantined -> %s\n",
                    cache.value()->QuarantineDir().c_str());
      } else {
        std::printf("      quarantine failed: %s\n",
                    moved.ToString().c_str());
      }
    }
  }
  std::printf("doctor: %zu entries, %zu healthy, %zu sick "
              "(%zu quarantined, %zu deleted)\n",
              entries.size(), healthy, sick, quarantined, deleted);
  return sick == 0 ? 0 : 1;
}

int CmdGenDelta(const Args& args) {
  if (args.positional.size() != 1) return Usage(2);
  const std::string* out_path = args.Flag("--out");
  if (out_path == nullptr || args.Flag("--edits") == nullptr) {
    std::fprintf(stderr,
                 "gen-delta requires --out OUT.cwd and --edits N\n");
    return 2;
  }
  uint64_t edits = 0, seed = 1;
  if (!ParseU64Flag(args, "--edits", &edits) ||
      !ParseU64Flag(args, "--seed", &seed)) {
    return 2;
  }
  const StatusOr<Graph> base = OpenGraphFile(args.positional[0]);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  DeltaLog log = GenerateChurnDelta(base.value(), seed, edits);
  // Record the composition's hash so every later application of this log
  // is cross-checked against what the generator saw.
  const StatusOr<AppliedDelta> applied =
      ApplyDeltaToGraph(base.value(), log, log.base_hash);
  if (!applied.ok()) {
    std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
    return 1;
  }
  log.result_hash = applied.value().result_hash;
  if (const Status written = WriteDeltaFile(log, *out_path); !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu edits, %zu dirty nodes, base=%s result=%s\n",
              out_path->c_str(), log.edits.size(),
              applied.value().dirty_nodes.size(),
              HashToHex(log.base_hash).c_str(),
              HashToHex(log.result_hash).c_str());
  return 0;
}

int CmdPatch(const Args& args) {
  if (args.positional.size() != 1) return Usage(2);
  const std::string* out_path = args.Flag("--out");
  const std::vector<std::string> delta_paths = args.FlagValues("--delta");
  if (out_path == nullptr || delta_paths.empty()) {
    std::fprintf(stderr,
                 "patch requires --delta LOG.cwd (repeatable) and "
                 "--out OUT.cwg\n");
    return 2;
  }
  uint64_t base_hash = 0;
  StatusOr<Graph> base = OpenGraphFile(args.positional[0], &base_hash);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  // A base that is itself delta-derived keeps its ancestry: the new
  // sidecar extends the old chain, so the recipe hash stays the fold of
  // every log ever applied since the original base.
  DeltaChainFile chain;
  chain.base_hash = base_hash;
  if (const StatusOr<DeltaChainFile> prior =
          ReadChainSidecar(args.positional[0]);
      prior.ok()) {
    chain = prior.value();
  }

  DeltaOverlay overlay(std::move(base).value(), base_hash);
  for (const std::string& delta_path : delta_paths) {
    const StatusOr<DeltaLog> log = OpenDeltaFile(delta_path);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
      return 1;
    }
    if (const Status applied = overlay.Apply(log.value()); !applied.ok()) {
      std::fprintf(stderr, "%s: %s\n", delta_path.c_str(),
                   applied.ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu edits, %zu dirty nodes -> %s\n", delta_path.c_str(),
                log.value().edits.size(), overlay.last_dirty_nodes().size(),
                HashToHex(overlay.content_hash()).c_str());
  }
  chain.links.insert(chain.links.end(), overlay.chain().begin(),
                     overlay.chain().end());

  const uint64_t recipe =
      DeltaChainRecipeHash(chain.base_hash, chain.links);
  if (const Status written = WriteGraphFile(overlay.graph(), *out_path,
                                            recipe, overlay.content_hash());
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  if (const Status sidecar = WriteChainSidecar(*out_path, chain);
      !sidecar.ok()) {
    std::fprintf(stderr, "%s\n", sidecar.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu nodes, %zu edges, content=%s, chain of %zu\n",
              out_path->c_str(), overlay.graph().num_nodes(),
              overlay.graph().num_edges(),
              HashToHex(overlay.content_hash()).c_str(),
              chain.links.size());
  return 0;
}

int CmdCompact(const Args& args) {
  if (args.positional.size() != 1) return Usage(2);
  const std::string& in_path = args.positional[0];
  const std::string* out_flag = args.Flag("--out");
  const std::string out_path = out_flag != nullptr ? *out_flag : in_path;

  const StatusOr<DeltaChainFile> chain = ReadChainSidecar(in_path);
  if (!chain.ok()) {
    std::fprintf(stderr, "%s (nothing to compact)\n",
                 chain.status().ToString().c_str());
    return 1;
  }
  uint64_t content_hash = 0;
  StatusOr<Graph> graph = OpenGraphFile(in_path, &content_hash);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const uint64_t recipe =
      DeltaChainRecipeHash(chain.value().base_hash, chain.value().links);
  // An in-place rewrite is safe under the open mapping: the write is
  // temp + rename, so the mmap keeps referencing the replaced inode.
  if (const Status written =
          WriteGraphFile(graph.value(), out_path, recipe, content_hash);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::remove((in_path + ".chain").c_str());
  if (out_path != in_path) std::remove((out_path + ".chain").c_str());
  std::printf("%s: re-baselined (%zu-delta chain folded into recipe %s), "
              "content=%s\n",
              out_path.c_str(), chain.value().links.size(),
              HashToHex(recipe).c_str(), HashToHex(content_hash).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") return Usage(0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (command == "import") return CmdImport(args);
  if (command == "build") return CmdBuild(args);
  if (command == "list") return CmdList(args);
  if (command == "info") {
    if (args.positional.empty()) return Usage(2);
    int failures = 0;
    for (const std::string& path : args.positional) {
      failures += InfoOne(path);
    }
    return failures == 0 ? 0 : 1;
  }
  if (command == "verify") return CmdVerify(args);
  if (command == "gc") return CmdGc(args);
  if (command == "doctor") return CmdDoctor(args);
  if (command == "gen-delta") return CmdGenDelta(args);
  if (command == "patch") return CmdPatch(args);
  if (command == "compact") return CmdCompact(args);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage(2);
}
