#include "store/rr_store.h"

#include <cstring>
#include <utility>

#include "store/mapped_file.h"
#include "support/failpoint.h"

namespace cwm {

namespace {

struct RrLayout {
  std::size_t offsets_bytes;
  std::size_t weights_bytes;
  std::size_t members_bytes;
  std::size_t payload_bytes;
};

RrLayout LayoutFor(uint64_t num_sets, uint64_t num_members) {
  RrLayout layout;
  layout.offsets_bytes = (num_sets + 1) * sizeof(uint64_t);
  layout.weights_bytes = num_sets * sizeof(double);
  layout.members_bytes = num_members * sizeof(NodeId);
  layout.payload_bytes =
      layout.offsets_bytes + layout.weights_bytes + layout.members_bytes;
  return layout;
}

struct OpenedRr {
  MappedFile mapping;
  RrFileHeader header;
  const uint64_t* offsets = nullptr;
  const double* weights = nullptr;
  const NodeId* members = nullptr;
};

StatusOr<OpenedRr> MapAndValidate(const std::string& path) {
  CWM_FAILPOINT("store.rr.validate");
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  OpenedRr opened;
  opened.mapping = std::move(mapped).value();

  if (opened.mapping.size() < sizeof(RrFileHeader)) {
    return Status::Corruption(path + ": truncated header (" +
                              std::to_string(opened.mapping.size()) +
                              " bytes)");
  }
  std::memcpy(&opened.header, opened.mapping.data(), sizeof(RrFileHeader));
  const RrFileHeader& header = opened.header;
  if (header.magic != kRrMagic) {
    return Status::Corruption(path +
                              ": not a cwm RR-collection file (bad magic)");
  }
  if (header.endian != kEndianTag) {
    return Status::Corruption(path + ": wrong byte order");
  }
  if (header.version != kFormatVersion) {
    return Status::Corruption(
        path + ": format version " + std::to_string(header.version) +
        " (this build reads " + std::to_string(kFormatVersion) + ")");
  }
  // RR ids are 32-bit and members are 4-byte NodeIds; bounding the counts
  // keeps every LayoutFor product far from 64-bit overflow (a crafted
  // huge count could otherwise wrap payload_bytes to match a tiny file).
  if (header.num_sets > (1ull << 32) || header.num_members > (1ull << 40) ||
      header.num_nodes > (1ull << 32)) {
    return Status::Corruption(path + ": implausible set/member count");
  }
  const RrLayout layout = LayoutFor(header.num_sets, header.num_members);
  if (header.payload_bytes != layout.payload_bytes ||
      opened.mapping.size() != sizeof(RrFileHeader) + layout.payload_bytes) {
    return Status::Corruption(path + ": truncated or oversized payload");
  }

  const std::byte* p = opened.mapping.data() + sizeof(RrFileHeader);
  opened.offsets = reinterpret_cast<const uint64_t*>(p);
  p += layout.offsets_bytes;
  opened.weights = reinterpret_cast<const double*>(p);
  p += layout.weights_bytes;
  opened.members = reinterpret_cast<const NodeId*>(p);

  if (opened.offsets[0] != 0) {
    return Status::Corruption(path + ": rr_offsets does not start at 0");
  }
  for (uint64_t k = 0; k < header.num_sets; ++k) {
    if (opened.offsets[k + 1] < opened.offsets[k]) {
      return Status::Corruption(path + ": rr_offsets not monotone at " +
                                std::to_string(k));
    }
  }
  if (opened.offsets[header.num_sets] != header.num_members) {
    return Status::Corruption(path +
                              ": rr_offsets does not end at num_members");
  }
  for (uint64_t i = 0; i < header.num_members; ++i) {
    if (opened.members[i] >= header.num_nodes) {
      return Status::Corruption(path + ": member node id out of range at " +
                                std::to_string(i));
    }
  }
  // Weights feed straight into RrCollection::Append, whose CWM_CHECK would
  // abort the process; validating here turns a corrupt cache entry into
  // a miss instead. (NaN fails both comparisons.)
  for (uint64_t k = 0; k < header.num_sets; ++k) {
    if (!(opened.weights[k] >= 0.0 && opened.weights[k] <= 1.0 + 1e-9)) {
      return Status::Corruption(path + ": weight out of [0,1] at " +
                                std::to_string(k));
    }
  }
  return opened;
}

}  // namespace

Status WriteRrFile(const RrCollection& rr, const RrProvenance& provenance,
                   const std::string& path) {
  RrFileHeader header;
  header.num_nodes = rr.num_nodes();
  header.num_sets = rr.size();
  header.num_members = rr.TotalMembers();
  header.graph_hash = provenance.graph_hash;
  header.sample_seed = provenance.sample_seed;
  header.source_id = provenance.source_id;
  header.era_start = provenance.era_start;

  const auto offsets = rr.RawOffsets();
  const auto weights = rr.RawWeights();
  const auto members = rr.RawMembers();
  const ByteSection payload[] = {
      {offsets.data(), offsets.size_bytes()},
      {weights.data(), weights.size_bytes()},
      {members.data(), members.size_bytes()},
  };
  uint64_t checksum = kFnv1aBasis;
  header.payload_bytes = 0;
  for (const ByteSection& section : payload) {
    checksum = Fnv1a64(section.data, section.size, checksum);
    header.payload_bytes += section.size;
  }
  header.checksum = checksum;

  const ByteSection sections[] = {
      {&header, sizeof(header)}, payload[0], payload[1], payload[2],
  };
  return WriteFileAtomic(path, sections);
}

StatusOr<RrEraData> OpenRrFile(const std::string& path,
                               const RrProvenance* expect,
                               std::size_t expect_num_nodes) {
  StatusOr<OpenedRr> opened = MapAndValidate(path);
  if (!opened.ok()) return opened.status();
  OpenedRr& o = opened.value();

  RrEraData data;
  data.num_nodes = o.header.num_nodes;
  data.provenance = {.graph_hash = o.header.graph_hash,
                     .sample_seed = o.header.sample_seed,
                     .source_id = o.header.source_id,
                     .era_start = o.header.era_start};
  if (expect != nullptr &&
      (data.provenance != *expect || data.num_nodes != expect_num_nodes)) {
    return Status::NotFound(path + ": provenance mismatch (recipe-hash "
                            "collision or stale artifact)");
  }
  // Zero-copy: the spans alias the mapping, which RrEraData keeps alive.
  // (The section pointers survive moving the MappedFile — the mapped
  // region itself never moves.)
  data.offsets = {o.offsets,
                  static_cast<std::size_t>(o.header.num_sets) + 1};
  data.weights = {o.weights, static_cast<std::size_t>(o.header.num_sets)};
  data.members = {o.members,
                  static_cast<std::size_t>(o.header.num_members)};
  data.mapping = std::make_shared<const MappedFile>(std::move(o.mapping));
  return data;
}

StatusOr<RrFileHeader> ReadRrHeader(const std::string& path) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  if (mapped.value().size() < sizeof(RrFileHeader)) {
    return Status::Corruption(path + ": truncated header");
  }
  RrFileHeader header;
  std::memcpy(&header, mapped.value().data(), sizeof(header));
  if (header.magic != kRrMagic) {
    return Status::Corruption(path +
                              ": not a cwm RR-collection file (bad magic)");
  }
  return header;
}

Status VerifyRrFile(const std::string& path) {
  StatusOr<OpenedRr> opened = MapAndValidate(path);
  if (!opened.ok()) return opened.status();
  const OpenedRr& o = opened.value();
  const std::byte* payload = o.mapping.data() + sizeof(RrFileHeader);
  const uint64_t checksum = Fnv1a64(payload, o.header.payload_bytes);
  if (checksum != o.header.checksum) {
    return Status::Corruption(path + ": payload checksum mismatch");
  }
  return Status::OK();
}

}  // namespace cwm
