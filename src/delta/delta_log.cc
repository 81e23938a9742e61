#include "delta/delta_log.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "store/mapped_file.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace cwm {

namespace {

/// One edit's structural validity; shared by write and open so a log the
/// store accepted always reopens.
Status CheckEdit(const DeltaEdit& edit, uint64_t num_nodes,
                 const std::string& context, std::size_t index) {
  if (edit.op > static_cast<uint32_t>(DeltaOp::kReweight)) {
    return Status::Corruption(context + ": unknown edit op at " +
                              std::to_string(index));
  }
  if (edit.from >= num_nodes || edit.to >= num_nodes) {
    return Status::Corruption(context + ": edit endpoint out of range at " +
                              std::to_string(index));
  }
  if (edit.from == edit.to) {
    return Status::Corruption(context + ": self-loop edit at " +
                              std::to_string(index));
  }
  if (edit.op != static_cast<uint32_t>(DeltaOp::kDelete) &&
      !(edit.prob >= 0.0f && edit.prob <= 1.0f)) {
    // Negated comparison so NaN fails.
    return Status::Corruption(context + ": edit probability out of range at " +
                              std::to_string(index));
  }
  return Status::OK();
}

Status CheckLog(const DeltaLog& log, const std::string& context) {
  if (log.num_nodes > (1ull << 32)) {
    return Status::Corruption(context + ": implausible node count");
  }
  for (std::size_t i = 0; i < log.edits.size(); ++i) {
    if (Status s = CheckEdit(log.edits[i], log.num_nodes, context, i);
        !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t DeltaLogHash(const DeltaLog& log) {
  uint64_t h = Fnv1a64(&log.num_nodes, sizeof(log.num_nodes));
  h = Fnv1a64(&log.base_hash, sizeof(log.base_hash), h);
  const uint64_t num_edits = log.edits.size();
  h = Fnv1a64(&num_edits, sizeof(num_edits), h);
  return Fnv1a64(log.edits.data(), log.edits.size() * sizeof(DeltaEdit), h);
}

Status WriteDeltaFile(const DeltaLog& log, const std::string& path) {
  if (Status s = CheckLog(log, "delta log"); !s.ok()) {
    return Status::InvalidArgument(s.message());
  }
  DeltaFileHeader header;
  header.num_edits = log.edits.size();
  header.num_nodes = log.num_nodes;
  header.base_hash = log.base_hash;
  header.result_hash = log.result_hash;
  header.payload_bytes = log.edits.size() * sizeof(DeltaEdit);
  header.checksum =
      Fnv1a64(log.edits.data(), header.payload_bytes, kFnv1aBasis);

  const ByteSection sections[] = {
      {&header, sizeof(header)},
      {log.edits.data(), static_cast<std::size_t>(header.payload_bytes)},
  };
  return WriteFileAtomic(path, sections);
}

StatusOr<DeltaLog> OpenDeltaFile(const std::string& path) {
  CWM_FAILPOINT("store.delta.validate");
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const MappedFile& file = mapped.value();

  if (file.size() < sizeof(DeltaFileHeader)) {
    return Status::Corruption(path + ": truncated header (" +
                              std::to_string(file.size()) + " bytes)");
  }
  DeltaFileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (header.magic != kDeltaMagic) {
    return Status::Corruption(path + ": not a cwm delta file (bad magic)");
  }
  if (header.endian != kEndianTag) {
    return Status::Corruption(path + ": wrong byte order");
  }
  if (header.version != kFormatVersion) {
    return Status::Corruption(
        path + ": format version " + std::to_string(header.version) +
        " (this build reads " + std::to_string(kFormatVersion) + ")");
  }
  // Edits are bounded the same way nodes/edges are in .cwg validation:
  // rejecting implausible counts keeps the size product far from 64-bit
  // overflow.
  if (header.num_edits > (1ull << 32) || header.num_nodes > (1ull << 32)) {
    return Status::Corruption(path + ": implausible edit/node count");
  }
  if (header.payload_bytes != header.num_edits * sizeof(DeltaEdit) ||
      file.size() != sizeof(DeltaFileHeader) + header.payload_bytes) {
    return Status::Corruption(path + ": truncated or oversized payload");
  }
  const std::byte* payload = file.data() + sizeof(DeltaFileHeader);
  // Logs are tiny relative to graphs: always verify the checksum on open
  // so a corrupt log can never silently poison a composed graph.
  if (Fnv1a64(payload, header.payload_bytes) != header.checksum) {
    return Status::Corruption(path + ": payload checksum mismatch");
  }

  DeltaLog log;
  log.num_nodes = header.num_nodes;
  log.base_hash = header.base_hash;
  log.result_hash = header.result_hash;
  log.edits.resize(header.num_edits);
  // An empty log has no buffer: memcpy's pointers must be non-null even
  // for a zero-byte copy.
  if (header.payload_bytes > 0) {
    std::memcpy(log.edits.data(), payload, header.payload_bytes);
  }
  if (Status s = CheckLog(log, path); !s.ok()) return s;
  return log;
}

StatusOr<DeltaFileHeader> ReadDeltaHeader(const std::string& path) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  if (mapped.value().size() < sizeof(DeltaFileHeader)) {
    return Status::Corruption(path + ": truncated header");
  }
  DeltaFileHeader header;
  std::memcpy(&header, mapped.value().data(), sizeof(header));
  if (header.magic != kDeltaMagic) {
    return Status::Corruption(path + ": not a cwm delta file (bad magic)");
  }
  return header;
}

Status VerifyDeltaFile(const std::string& path) {
  return OpenDeltaFile(path).status();
}

DeltaLog GenerateChurnDelta(const Graph& base, uint64_t seed,
                            std::size_t num_edits) {
  DeltaLog log;
  log.num_nodes = base.num_nodes();
  log.base_hash = GraphContentHash(base);
  const uint64_t n = base.num_nodes();
  if (n < 2) return log;
  Rng rng(MixHash(seed, 0xC4B2Dull));  // churn stream tag
  log.edits.reserve(num_edits);
  for (std::size_t i = 0; i < num_edits; ++i) {
    DeltaEdit edit;
    const uint64_t kind = rng.NextBounded(3);
    if (kind != 0 && base.num_edges() > 0) {
      // Delete or reweight an existing edge: pick a uniformly random
      // forward EdgeId and resolve its endpoints (deterministic and O(1)
      // amortized via the out-CSR).
      const EdgeId id =
          static_cast<EdgeId>(rng.NextBounded(base.num_edges()));
      NodeId u = 0;
      {
        // Binary search the out-offset array for the owning node.
        std::size_t lo = 0, hi = n;
        const auto offsets = base.RawOutOffsets();
        while (lo + 1 < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (offsets[mid] <= id) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        u = static_cast<NodeId>(lo);
      }
      const OutEdge out =
          base.RawOutEdges()[static_cast<std::size_t>(id)];
      edit.from = u;
      edit.to = out.to;
      if (kind == 1) {
        edit.op = static_cast<uint32_t>(DeltaOp::kDelete);
      } else {
        edit.op = static_cast<uint32_t>(DeltaOp::kReweight);
        edit.prob = static_cast<float>(0.01 + 0.49 * rng.NextDouble());
      }
    } else {
      edit.op = static_cast<uint32_t>(DeltaOp::kInsert);
      edit.from = static_cast<NodeId>(rng.NextBounded(n));
      do {
        edit.to = static_cast<NodeId>(rng.NextBounded(n));
      } while (edit.to == edit.from);
      edit.prob = static_cast<float>(0.01 + 0.49 * rng.NextDouble());
    }
    log.edits.push_back(edit);
  }
  return log;
}

}  // namespace cwm
