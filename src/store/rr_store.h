// Binary RR-collection persistence (.cwr).
//
// An RrCollection's flat CSR (offsets, weights, members) is written
// verbatim after a header carrying the full sampling provenance: the
// content hash of the graph sampled from, the pipeline seed, the sampler
// source id, and the era start index (the global index of sample 0 in
// this collection — rrset/rr_pipeline.h). Because the pipeline derives
// sample k purely from (seed, era_start + k), this tuple pins the
// collection's bytes exactly, independent of thread count.
//
// Open is one mmap: the era's arrays are returned as spans aliasing the
// mapping (RrEraData pins it alive), so nothing is copied until samples
// are replayed into a collection. No node->RR index is persisted, nor
// kept by RrCollection: greedy selection lists only the candidate nodes
// it needs, per call (rrset/node_selection.h), and collections are
// usually extended after loading anyway.
#ifndef CWM_STORE_RR_STORE_H_
#define CWM_STORE_RR_STORE_H_

#include <memory>
#include <span>
#include <string>

#include "rrset/rr_collection.h"
#include "store/format.h"
#include "store/mapped_file.h"
#include "support/status.h"

namespace cwm {

/// The sampling identity of a stored RR collection; all fields must match
/// on open for the samples to be served (see RrFileHeader).
struct RrProvenance {
  uint64_t graph_hash = 0;
  uint64_t sample_seed = 0;
  uint64_t source_id = 0;
  uint64_t era_start = 0;

  bool operator==(const RrProvenance&) const = default;
};

/// A loaded .cwr file: flat array views plus provenance. `offsets` has
/// num_sets + 1 entries; set k spans members [offsets[k], offsets[k+1]).
/// The spans alias the read-only file mapping pinned by `mapping` —
/// nothing is copied out of the file, so serving a cached era costs one
/// mmap and the kernel pages members in as they are replayed.
struct RrEraData {
  std::size_t num_nodes = 0;
  RrProvenance provenance;
  /// Keep-alive for the mapping the spans below point into.
  std::shared_ptr<const MappedFile> mapping;
  std::span<const uint64_t> offsets;
  std::span<const double> weights;
  std::span<const NodeId> members;

  std::size_t num_sets() const { return weights.size(); }
};

/// Writes `rr` to `path` atomically with `provenance` in the header.
Status WriteRrFile(const RrCollection& rr, const RrProvenance& provenance,
                   const std::string& path);

/// Opens a .cwr file. If `expect` is non-null, the header's provenance
/// and num_nodes must match it exactly (NotFound on mismatch — the entry
/// exists but is not the requested artifact).
StatusOr<RrEraData> OpenRrFile(const std::string& path,
                               const RrProvenance* expect = nullptr,
                               std::size_t expect_num_nodes = 0);

/// Header fields of a .cwr file without loading the payload.
StatusOr<RrFileHeader> ReadRrHeader(const std::string& path);

/// Full integrity check: structural validation plus the payload checksum.
Status VerifyRrFile(const std::string& path);

}  // namespace cwm

#endif  // CWM_STORE_RR_STORE_H_
