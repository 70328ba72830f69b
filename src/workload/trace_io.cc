#include "workload/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/check.h"
#include "common/codec.h"
#include "common/mmap_file.h"
#include "obs/metrics.h"
#include "workload/trace_format.h"

namespace costream::workload {

namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;

constexpr char kHeader[] = "#costream-traces v1";

// --- observability -----------------------------------------------------------

obs::Counter& SaveRecordsCounter() {
  static obs::Counter& c = obs::GetCounter("workload.trace.records_written");
  return c;
}
obs::Counter& SaveBytesCounter() {
  static obs::Counter& c = obs::GetCounter("workload.trace.bytes_written");
  return c;
}
obs::Counter& SaveBlocksCounter() {
  static obs::Counter& c = obs::GetCounter("workload.trace.blocks_written");
  return c;
}
obs::Counter& LoadRecordsCounter() {
  static obs::Counter& c = obs::GetCounter("workload.trace.records_read");
  return c;
}
obs::Counter& LoadBytesCounter() {
  static obs::Counter& c = obs::GetCounter("workload.trace.bytes_read");
  return c;
}
obs::Histogram& SaveLatency() {
  static obs::Histogram& h = obs::GetHistogram("workload.trace.save_us");
  return h;
}
obs::Histogram& LoadLatency() {
  static obs::Histogram& h = obs::GetHistogram("workload.trace.load_us");
  return h;
}

// --- v1 text format ----------------------------------------------------------

void WriteOperator(std::ostream& os, int id, const OperatorDescriptor& op) {
  os << "op " << id << ' ' << static_cast<int>(op.type)
     << " win=" << op.tuple_width_in << " wout=" << op.tuple_width_out
     << " rate=" << op.input_event_rate
     << " ff=" << static_cast<int>(op.filter_function)
     << " lit=" << static_cast<int>(op.literal_data_type)
     << " wt=" << static_cast<int>(op.window.type)
     << " wp=" << static_cast<int>(op.window.policy)
     << " wsz=" << op.window.size << " wsl=" << op.window.slide
     << " af=" << static_cast<int>(op.aggregate_function)
     << " gb=" << static_cast<int>(op.group_by_type)
     << " at=" << static_cast<int>(op.aggregate_data_type)
     << " jk=" << static_cast<int>(op.join_key_type)
     << " par=" << op.parallelism << " sel=" << op.selectivity
     << " fi=" << op.frac_int
     << " fd=" << op.frac_double << " fs=" << op.frac_string << " types=";
  for (size_t i = 0; i < op.tuple_data_types.size(); ++i) {
    if (i > 0) os << ',';
    os << static_cast<int>(op.tuple_data_types[i]);
  }
  if (op.tuple_data_types.empty()) os << '-';
  os << '\n';
}

// Parses "key=value" into the value part; aborts the record on mismatch.
bool ConsumeKey(std::istringstream& is, const char* key, std::string* value) {
  std::string token;
  if (!(is >> token)) return false;
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  *value = token.substr(prefix.size());
  return true;
}

// Parses the whole value token into T; rejects trailing garbage ("3x"),
// fractional text for integral fields ("3.7"), and out-of-range values.
// Integral fields go through int64_t rather than double so values above
// 2^53 are not silently rounded.
template <typename T>
bool ConsumeNumeric(std::istringstream& is, const char* key, T* out) {
  std::string value;
  if (!ConsumeKey(is, key, &value)) return false;
  if (value.empty()) return false;
  const char* begin = value.data();
  const char* end = begin + value.size();
  if constexpr (std::is_integral_v<T>) {
    int64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, parsed);
    if (ec != std::errc() || ptr != end) return false;
    if (parsed < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        parsed > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(parsed);
  } else {
    errno = 0;
    char* parse_end = nullptr;
    const double parsed = std::strtod(begin, &parse_end);
    if (parse_end != end || errno == ERANGE) return false;
    *out = static_cast<T>(parsed);
  }
  return true;
}

bool ParseOperator(const std::string& line, int* id, OperatorDescriptor* op) {
  std::istringstream is(line);
  std::string tag;
  int type = 0;
  if (!(is >> tag >> *id >> type) || tag != "op") return false;
  op->type = static_cast<OperatorType>(type);
  int ff = 0, lit = 0, wt = 0, wp = 0, af = 0, gb = 0, at = 0, jk = 0;
  if (!ConsumeNumeric(is, "win", &op->tuple_width_in)) return false;
  if (!ConsumeNumeric(is, "wout", &op->tuple_width_out)) return false;
  if (!ConsumeNumeric(is, "rate", &op->input_event_rate)) return false;
  if (!ConsumeNumeric(is, "ff", &ff)) return false;
  if (!ConsumeNumeric(is, "lit", &lit)) return false;
  if (!ConsumeNumeric(is, "wt", &wt)) return false;
  if (!ConsumeNumeric(is, "wp", &wp)) return false;
  if (!ConsumeNumeric(is, "wsz", &op->window.size)) return false;
  if (!ConsumeNumeric(is, "wsl", &op->window.slide)) return false;
  if (!ConsumeNumeric(is, "af", &af)) return false;
  if (!ConsumeNumeric(is, "gb", &gb)) return false;
  if (!ConsumeNumeric(is, "at", &at)) return false;
  if (!ConsumeNumeric(is, "jk", &jk)) return false;
  if (!ConsumeNumeric(is, "par", &op->parallelism)) return false;
  if (!ConsumeNumeric(is, "sel", &op->selectivity)) return false;
  if (!ConsumeNumeric(is, "fi", &op->frac_int)) return false;
  if (!ConsumeNumeric(is, "fd", &op->frac_double)) return false;
  if (!ConsumeNumeric(is, "fs", &op->frac_string)) return false;
  op->filter_function = static_cast<dsps::FilterFunction>(ff);
  op->literal_data_type = static_cast<dsps::DataType>(lit);
  op->window.type = static_cast<dsps::WindowType>(wt);
  op->window.policy = static_cast<dsps::WindowPolicy>(wp);
  op->aggregate_function = static_cast<dsps::AggregateFunction>(af);
  op->group_by_type = static_cast<dsps::GroupByType>(gb);
  op->aggregate_data_type = static_cast<dsps::DataType>(at);
  op->join_key_type = static_cast<dsps::DataType>(jk);

  std::string types;
  if (!ConsumeKey(is, "types", &types)) return false;
  op->tuple_data_types.clear();
  if (types != "-") {
    std::istringstream ts(types);
    std::string item;
    while (std::getline(ts, item, ',')) {
      op->tuple_data_types.push_back(
          static_cast<dsps::DataType>(std::atoi(item.c_str())));
    }
  }
  return true;
}

// Structural validation shared by both loaders: operator ids are dense and
// in order, the query and the placement are well-formed.
bool FinalizeRecord(std::vector<std::pair<int, OperatorDescriptor>>&& ops,
                    const std::vector<std::pair<int, int>>& edges,
                    TraceRecord* record) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].first != static_cast<int>(i)) return false;
    record->query.AddOperator(ops[i].second);
  }
  for (const auto& [from, to] : edges) {
    if (from < 0 || from >= record->query.num_operators() || to < 0 ||
        to >= record->query.num_operators()) {
      return false;
    }
    record->query.AddEdge(from, to);
  }
  if (!record->query.Validate().empty()) return false;
  if (!sim::ValidateLinkMatrix(record->cluster).empty()) return false;
  if (!sim::ValidatePlacement(record->query, record->cluster,
                              record->placement)
           .empty()) {
    return false;
  }
  return true;
}

bool LoadTracesV1(std::istream& is, std::vector<TraceRecord>* records) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) return false;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line != "record") return false;
    TraceRecord record;
    std::vector<std::pair<int, OperatorDescriptor>> ops;
    std::vector<std::pair<int, int>> edges;
    bool closed = false;
    while (std::getline(is, line)) {
      if (line == "end") {
        closed = true;
        break;
      }
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "template") {
        int t = 0;
        std::string filters_tag;
        if (!(ls >> t >> filters_tag >> record.num_filters) ||
            filters_tag != "filters") {
          return false;
        }
        record.template_kind = static_cast<QueryTemplate>(t);
      } else if (tag == "op") {
        int id = 0;
        OperatorDescriptor op;
        if (!ParseOperator(line, &id, &op)) return false;
        ops.emplace_back(id, op);
      } else if (tag == "edge") {
        int from = 0, to = 0;
        if (!(ls >> from >> to)) return false;
        edges.emplace_back(from, to);
      } else if (tag == "node") {
        sim::HardwareNode node;
        if (!(ls >> node.cpu_pct >> node.ram_mb >> node.bandwidth_mbits >>
              node.latency_ms)) {
          return false;
        }
        record.cluster.nodes.push_back(node);
      } else if (tag == "linkbw" || tag == "linklat") {
        std::vector<double>& dest =
            tag == "linkbw" ? record.cluster.link_bandwidth_mbits
                            : record.cluster.link_latency_ms;
        double v = 0.0;
        while (ls >> v) dest.push_back(v);
        // A non-numeric token mid-row is corruption, not end-of-line.
        if (!ls.eof()) return false;
      } else if (tag == "placement") {
        int n = 0;
        while (ls >> n) record.placement.push_back(n);
      } else if (tag == "metrics") {
        std::string k1, k2, k3, k4, k5;
        int bp = 0, success = 0;
        if (!(ls >> k1 >> record.metrics.throughput >> k2 >>
              record.metrics.processing_latency_ms >> k3 >>
              record.metrics.e2e_latency_ms >> k4 >> bp >> k5 >> success)) {
          return false;
        }
        record.metrics.backpressure = bp != 0;
        record.metrics.success = success != 0;
      } else {
        return false;
      }
    }
    if (!closed) return false;
    if (!FinalizeRecord(std::move(ops), edges, &record)) return false;
    records->push_back(std::move(record));
  }
  return true;
}

}  // namespace

// --- v2 binary format internals ---------------------------------------------
//
// Everything is little-endian with explicit byte shifts, so images are
// portable across hosts regardless of native endianness. Doubles travel as
// their IEEE-754 bit pattern (exact round-trip by construction). Layout
// constants and the cursor live in trace_format.h, shared with the mmap
// reader and the artifact linter.

namespace internal {

// Serialized sizes used for count sanity checks.
constexpr size_t kMinOpBytes = 9 + 4 + 9 * 8 + 4;  // enums+par+doubles+types len
constexpr size_t kEdgeBytes = 8;
constexpr size_t kNodeBytes = 32;
constexpr size_t kPlacementEntryBytes = 4;

bool ParseV2Header(Cursor* cur, HeaderInfo* info) {
  *info = HeaderInfo{};
  if (cur->remaining() < sizeof(kMagicV2) ||
      std::memcmp(cur->p, kMagicV2, sizeof(kMagicV2)) != 0) {
    return false;
  }
  cur->Skip(sizeof(kMagicV2));
  uint32_t version = 0;
  if (!cur->GetU32(&version) || version != kVersionV2) return false;
  if (!cur->GetU32(&info->header_bytes) ||
      info->header_bytes < kHeaderBytesV2) {
    return false;
  }
  if (!cur->GetU64(&info->record_count)) return false;
  // Extended headers lead with a feature-flag word describing extra record
  // sections. Unknown flags change the body layout in ways this reader
  // cannot parse, so they fail closed; unknown header *tail* bytes beyond
  // the words we understand are skippable padding.
  uint32_t ext_consumed = 0;
  if (info->header_bytes >= kHeaderBytesV2Ext) {
    uint32_t reserved = 0;
    if (!cur->GetU32(&info->flags) || !cur->GetU32(&reserved)) return false;
    if ((info->flags & ~kKnownHeaderFlags) != 0) return false;
    ext_consumed = kHeaderBytesV2Ext - kHeaderBytesV2;
  }
  return cur->Skip(info->header_bytes - kHeaderBytesV2 - ext_consumed);
}

uint64_t FrameSeed(const BlockFrame& frame) {
  std::string head;
  head.reserve(16);
  PutU32(&head, frame.compressed_bytes);
  PutU32(&head, frame.uncompressed_bytes);
  PutU32(&head, frame.record_count);
  PutU32(&head, frame.flags);
  return common::Fnv1a64(head.data(), head.size());
}

void PutBlockFrame(std::string* out, const BlockFrame& frame) {
  PutU32(out, frame.compressed_bytes);
  PutU32(out, frame.uncompressed_bytes);
  PutU32(out, frame.record_count);
  PutU32(out, frame.flags);
  PutU64(out, frame.checksum);
}

bool GetBlockFrame(Cursor* cur, BlockFrame* frame) {
  return cur->GetU32(&frame->compressed_bytes) &&
         cur->GetU32(&frame->uncompressed_bytes) &&
         cur->GetU32(&frame->record_count) && cur->GetU32(&frame->flags) &&
         cur->GetU64(&frame->checksum);
}

void PutIndexEntry(std::string* out, const IndexEntry& entry) {
  PutU64(out, entry.offset);
  PutU64(out, entry.compressed_bytes);
  PutU64(out, entry.uncompressed_bytes);
  PutU64(out, entry.first_record);
  PutU64(out, entry.record_count);
  PutU64(out, entry.checksum);
}

bool GetIndexEntry(Cursor* cur, IndexEntry* entry) {
  return cur->GetU64(&entry->offset) && cur->GetU64(&entry->compressed_bytes) &&
         cur->GetU64(&entry->uncompressed_bytes) &&
         cur->GetU64(&entry->first_record) &&
         cur->GetU64(&entry->record_count) && cur->GetU64(&entry->checksum);
}

bool ParseTrailer(const char* data, size_t size, Trailer* trailer) {
  if (size < kTrailerBytes) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data) + size - kTrailerBytes;
  if (std::memcmp(p + 24, kIndexMagic, sizeof(kIndexMagic)) != 0) return false;
  Cursor cur{p, p + kTrailerBytes};
  return cur.GetU64(&trailer->index_offset) &&
         cur.GetU64(&trailer->num_blocks) &&
         cur.GetU64(&trailer->index_checksum);
}

// `with_links` mirrors the image-level kHeaderFlagLinkMatrix flag: when set,
// every body carries a link-matrix section (presence byte + matrices) so the
// reader needs no per-record guessing; when clear the body layout is bitwise
// identical to the original v2 encoding.
void AppendRecordBody(const TraceRecord& record, bool with_links,
                      std::string* out) {
  PutU8(out, static_cast<uint8_t>(record.template_kind));
  PutI32(out, record.num_filters);

  PutU32(out, static_cast<uint32_t>(record.query.num_operators()));
  for (int i = 0; i < record.query.num_operators(); ++i) {
    const OperatorDescriptor& op = record.query.op(i);
    PutU8(out, static_cast<uint8_t>(op.type));
    PutU8(out, static_cast<uint8_t>(op.filter_function));
    PutU8(out, static_cast<uint8_t>(op.literal_data_type));
    PutU8(out, static_cast<uint8_t>(op.window.type));
    PutU8(out, static_cast<uint8_t>(op.window.policy));
    PutU8(out, static_cast<uint8_t>(op.aggregate_function));
    PutU8(out, static_cast<uint8_t>(op.group_by_type));
    PutU8(out, static_cast<uint8_t>(op.aggregate_data_type));
    PutU8(out, static_cast<uint8_t>(op.join_key_type));
    PutI32(out, op.parallelism);
    PutF64(out, op.tuple_width_in);
    PutF64(out, op.tuple_width_out);
    PutF64(out, op.input_event_rate);
    PutF64(out, op.window.size);
    PutF64(out, op.window.slide);
    PutF64(out, op.selectivity);
    PutF64(out, op.frac_int);
    PutF64(out, op.frac_double);
    PutF64(out, op.frac_string);
    PutU32(out, static_cast<uint32_t>(op.tuple_data_types.size()));
    for (dsps::DataType t : op.tuple_data_types) {
      PutU8(out, static_cast<uint8_t>(t));
    }
  }

  PutU32(out, static_cast<uint32_t>(record.query.edges().size()));
  for (const auto& [from, to] : record.query.edges()) {
    PutI32(out, from);
    PutI32(out, to);
  }

  PutU32(out, static_cast<uint32_t>(record.cluster.nodes.size()));
  for (const sim::HardwareNode& node : record.cluster.nodes) {
    PutF64(out, node.cpu_pct);
    PutF64(out, node.ram_mb);
    PutF64(out, node.bandwidth_mbits);
    PutF64(out, node.latency_ms);
  }

  if (with_links) {
    const bool has = record.cluster.has_link_matrix();
    PutU8(out, has ? 1 : 0);
    if (has) {
      for (double v : record.cluster.link_bandwidth_mbits) PutF64(out, v);
      for (double v : record.cluster.link_latency_ms) PutF64(out, v);
    }
  }

  PutU32(out, static_cast<uint32_t>(record.placement.size()));
  for (int n : record.placement) PutI32(out, n);

  PutF64(out, record.metrics.throughput);
  PutF64(out, record.metrics.processing_latency_ms);
  PutF64(out, record.metrics.e2e_latency_ms);
  PutU8(out, record.metrics.backpressure ? 1 : 0);
  PutU8(out, record.metrics.success ? 1 : 0);
}

bool ParseRecordBody(Cursor body, bool link_fields, TraceRecord* record) {
  uint8_t template_kind = 0;
  if (!body.GetU8(&template_kind)) return false;
  record->template_kind = static_cast<QueryTemplate>(template_kind);
  if (!body.GetI32(&record->num_filters)) return false;

  uint32_t num_ops = 0;
  if (!body.GetU32(&num_ops) || !body.CountFits(num_ops, kMinOpBytes)) {
    return false;
  }
  std::vector<std::pair<int, OperatorDescriptor>> ops;
  ops.reserve(num_ops);
  for (uint32_t i = 0; i < num_ops; ++i) {
    OperatorDescriptor op;
    uint8_t type = 0, ff = 0, lit = 0, wt = 0, wp = 0, af = 0, gb = 0, at = 0,
            jk = 0;
    if (!body.GetU8(&type) || !body.GetU8(&ff) || !body.GetU8(&lit) ||
        !body.GetU8(&wt) || !body.GetU8(&wp) || !body.GetU8(&af) ||
        !body.GetU8(&gb) || !body.GetU8(&at) || !body.GetU8(&jk)) {
      return false;
    }
    op.type = static_cast<OperatorType>(type);
    op.filter_function = static_cast<dsps::FilterFunction>(ff);
    op.literal_data_type = static_cast<dsps::DataType>(lit);
    op.window.type = static_cast<dsps::WindowType>(wt);
    op.window.policy = static_cast<dsps::WindowPolicy>(wp);
    op.aggregate_function = static_cast<dsps::AggregateFunction>(af);
    op.group_by_type = static_cast<dsps::GroupByType>(gb);
    op.aggregate_data_type = static_cast<dsps::DataType>(at);
    op.join_key_type = static_cast<dsps::DataType>(jk);
    if (!body.GetI32(&op.parallelism) || !body.GetF64(&op.tuple_width_in) ||
        !body.GetF64(&op.tuple_width_out) ||
        !body.GetF64(&op.input_event_rate) || !body.GetF64(&op.window.size) ||
        !body.GetF64(&op.window.slide) || !body.GetF64(&op.selectivity) ||
        !body.GetF64(&op.frac_int) || !body.GetF64(&op.frac_double) ||
        !body.GetF64(&op.frac_string)) {
      return false;
    }
    uint32_t num_types = 0;
    if (!body.GetU32(&num_types) || !body.CountFits(num_types, 1)) {
      return false;
    }
    op.tuple_data_types.reserve(num_types);
    for (uint32_t t = 0; t < num_types; ++t) {
      uint8_t dt = 0;
      if (!body.GetU8(&dt)) return false;
      op.tuple_data_types.push_back(static_cast<dsps::DataType>(dt));
    }
    ops.emplace_back(static_cast<int>(i), std::move(op));
  }

  uint32_t num_edges = 0;
  if (!body.GetU32(&num_edges) || !body.CountFits(num_edges, kEdgeBytes)) {
    return false;
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    int32_t from = 0, to = 0;
    if (!body.GetI32(&from) || !body.GetI32(&to)) return false;
    edges.emplace_back(from, to);
  }

  uint32_t num_nodes = 0;
  if (!body.GetU32(&num_nodes) || !body.CountFits(num_nodes, kNodeBytes)) {
    return false;
  }
  record->cluster.nodes.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    sim::HardwareNode node;
    if (!body.GetF64(&node.cpu_pct) || !body.GetF64(&node.ram_mb) ||
        !body.GetF64(&node.bandwidth_mbits) || !body.GetF64(&node.latency_ms)) {
      return false;
    }
    record->cluster.nodes.push_back(node);
  }

  if (link_fields) {
    uint8_t has_links = 0;
    if (!body.GetU8(&has_links) || has_links > 1) return false;
    if (has_links == 1) {
      // A flagged body must carry both full n*n matrices; a file truncated
      // mid-matrix fails closed here via the bounds-checked cursor.
      const size_t entries =
          static_cast<size_t>(num_nodes) * static_cast<size_t>(num_nodes);
      if (entries > body.remaining() / (2 * sizeof(double))) return false;
      record->cluster.link_bandwidth_mbits.reserve(entries);
      record->cluster.link_latency_ms.reserve(entries);
      for (size_t i = 0; i < entries; ++i) {
        double v = 0.0;
        if (!body.GetF64(&v)) return false;
        record->cluster.link_bandwidth_mbits.push_back(v);
      }
      for (size_t i = 0; i < entries; ++i) {
        double v = 0.0;
        if (!body.GetF64(&v)) return false;
        record->cluster.link_latency_ms.push_back(v);
      }
    }
  }

  uint32_t placement_size = 0;
  if (!body.GetU32(&placement_size) ||
      !body.CountFits(placement_size, kPlacementEntryBytes)) {
    return false;
  }
  record->placement.reserve(placement_size);
  for (uint32_t i = 0; i < placement_size; ++i) {
    int32_t n = 0;
    if (!body.GetI32(&n)) return false;
    record->placement.push_back(n);
  }

  uint8_t bp = 0, success = 0;
  if (!body.GetF64(&record->metrics.throughput) ||
      !body.GetF64(&record->metrics.processing_latency_ms) ||
      !body.GetF64(&record->metrics.e2e_latency_ms) || !body.GetU8(&bp) ||
      !body.GetU8(&success)) {
    return false;
  }
  record->metrics.backpressure = bp != 0;
  record->metrics.success = success != 0;

  // A record body that leaves trailing bytes has a lying length prefix.
  if (body.remaining() != 0) return false;
  return FinalizeRecord(std::move(ops), edges, record);
}

bool ParseRecordFrames(Cursor* cur, uint64_t count, bool link_fields,
                       std::vector<TraceRecord>* records) {
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t payload = 0;
    if (!cur->GetU32(&payload) || cur->remaining() < payload) return false;
    Cursor body{cur->p, cur->p + payload};
    TraceRecord record;
    if (!ParseRecordBody(body, link_fields, &record)) return false;
    cur->p += payload;
    records->push_back(std::move(record));
  }
  return true;
}

bool VerifyBlockPayload(const unsigned char* payload,
                        const BlockFrame& frame) {
  if ((frame.flags & ~kKnownBlockFlags) != 0) return false;
  if (frame.uncompressed_bytes > kMaxBlockUncompressedBytes) return false;
  // The checksum is seeded with the other frame fields, so a lying size or
  // count fails here — before any uncompressed allocation.
  return common::Fnv1a64(payload, frame.compressed_bytes, FrameSeed(frame)) ==
         frame.checksum;
}

bool InflateBlockPayload(const unsigned char* payload, const BlockFrame& frame,
                         std::string* out) {
  if ((frame.flags & kBlockFlagCodec) != 0) {
    out->resize(frame.uncompressed_bytes);
    return common::DecompressBlock(reinterpret_cast<const char*>(payload),
                                   frame.compressed_bytes, out->data(),
                                   out->size());
  }
  if (frame.compressed_bytes != frame.uncompressed_bytes) return false;
  out->assign(reinterpret_cast<const char*>(payload), frame.compressed_bytes);
  return true;
}

void AppendRecordTextV1(std::ostream& os, const TraceRecord& record) {
  os << "record\n";
  os << "template " << static_cast<int>(record.template_kind) << " filters "
     << record.num_filters << '\n';
  for (int i = 0; i < record.query.num_operators(); ++i) {
    WriteOperator(os, i, record.query.op(i));
  }
  for (const auto& [from, to] : record.query.edges()) {
    os << "edge " << from << ' ' << to << '\n';
  }
  for (const sim::HardwareNode& node : record.cluster.nodes) {
    os << "node " << node.cpu_pct << ' ' << node.ram_mb << ' '
       << node.bandwidth_mbits << ' ' << node.latency_ms << '\n';
  }
  // Per-link matrices are written one row per line and only when present,
  // so link-free corpora remain readable by pre-extension parsers (which
  // reject unknown tags).
  if (record.cluster.has_link_matrix()) {
    const int n = record.cluster.num_nodes();
    for (int row = 0; row < n; ++row) {
      os << "linkbw";
      for (int to = 0; to < n; ++to) {
        os << ' ' << record.cluster.link_bandwidth_mbits[row * n + to];
      }
      os << '\n';
    }
    for (int row = 0; row < n; ++row) {
      os << "linklat";
      for (int to = 0; to < n; ++to) {
        os << ' ' << record.cluster.link_latency_ms[row * n + to];
      }
      os << '\n';
    }
  }
  os << "placement";
  for (int n : record.placement) os << ' ' << n;
  os << '\n';
  os << "metrics T " << record.metrics.throughput << " Lp "
     << record.metrics.processing_latency_ms << " Le "
     << record.metrics.e2e_latency_ms << " bp "
     << (record.metrics.backpressure ? 1 : 0) << " success "
     << (record.metrics.success ? 1 : 0) << '\n';
  os << "end\n";
}

}  // namespace internal

namespace {

// Incremental v2 image writer shared by the bulk Save* entry points and the
// TraceWriter streaming API. Plain images buffer record frames and flush in
// fixed-size chunks; compressed images buffer one block's uncompressed
// payload, flush it as a checksummed frame and collect the index entry.
// Either way peak memory is O(chunk/block), not O(corpus), and the emitted
// bytes are identical to what the former whole-image writer produced.
class V2ImageWriter {
 public:
  V2ImageWriter(std::ostream& os, bool with_links, bool compress,
                size_t block_bytes)
      : os_(os),
        with_links_(with_links),
        compress_(compress),
        block_bytes_(std::max<size_t>(block_bytes, 1)) {}

  void WriteHeader(uint64_t record_count) {
    std::string header;
    header.append(internal::kMagicV2, sizeof(internal::kMagicV2));
    internal::PutU32(&header, internal::kVersionV2);
    const bool ext = with_links_ || compress_;
    internal::PutU32(&header, ext ? internal::kHeaderBytesV2Ext
                                  : internal::kHeaderBytesV2);
    internal::PutU64(&header, record_count);
    if (ext) {
      uint32_t flags = 0;
      if (with_links_) flags |= internal::kHeaderFlagLinkMatrix;
      if (compress_) flags |= internal::kHeaderFlagCompressedBlocks;
      internal::PutU32(&header, flags);
      internal::PutU32(&header, 0);  // reserved
    }
    WriteBytes(header);
  }

  void Append(const TraceRecord& record) {
    COSTREAM_CHECK_MSG(sim::ValidateLinkMatrix(record.cluster).empty(),
                       "trace writer: invalid cluster link matrix");
    body_.clear();
    internal::AppendRecordBody(record, with_links_, &body_);
    internal::PutU32(&buffer_, static_cast<uint32_t>(body_.size()));
    buffer_.append(body_);
    ++records_total_;
    if (compress_) {
      ++records_in_block_;
      if (buffer_.size() >= block_bytes_) FlushBlock();
    } else if (buffer_.size() >= kFlushChunkBytes) {
      WriteBytes(buffer_);
      buffer_.clear();
    }
  }

  // Flushes everything pending (final partial block plus index and trailer
  // for compressed images). Returns total bytes written.
  uint64_t Finish() {
    if (compress_) {
      FlushBlock();
      std::string tail;
      const uint64_t index_offset = offset_;
      for (const internal::IndexEntry& entry : index_) {
        internal::PutIndexEntry(&tail, entry);
      }
      const uint64_t index_checksum =
          common::Fnv1a64(tail.data(), tail.size());
      internal::PutU64(&tail, index_offset);
      internal::PutU64(&tail, static_cast<uint64_t>(index_.size()));
      internal::PutU64(&tail, index_checksum);
      tail.append(internal::kIndexMagic, sizeof(internal::kIndexMagic));
      WriteBytes(tail);
    } else if (!buffer_.empty()) {
      WriteBytes(buffer_);
      buffer_.clear();
    }
    return offset_;
  }

  uint64_t records_written() const { return records_total_; }

 private:
  static constexpr size_t kFlushChunkBytes = size_t{256} << 10;

  void WriteBytes(const std::string& bytes) {
    os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    offset_ += bytes.size();
  }

  void FlushBlock() {
    if (records_in_block_ == 0) return;
    COSTREAM_CHECK_MSG(
        buffer_.size() <= internal::kMaxBlockUncompressedBytes,
        "trace writer: block exceeds the format's uncompressed cap");
    scratch_.clear();
    common::CompressBlock(buffer_.data(), buffer_.size(), &scratch_);
    // Store raw when the codec cannot shrink the payload, so the compressed
    // format is never larger than necessary per block.
    const bool codec = scratch_.size() < buffer_.size();
    const std::string& payload = codec ? scratch_ : buffer_;
    internal::BlockFrame frame;
    frame.compressed_bytes = static_cast<uint32_t>(payload.size());
    frame.uncompressed_bytes = static_cast<uint32_t>(buffer_.size());
    frame.record_count = static_cast<uint32_t>(records_in_block_);
    frame.flags = codec ? internal::kBlockFlagCodec : 0;
    frame.checksum = common::Fnv1a64(payload.data(), payload.size(),
                                     internal::FrameSeed(frame));
    internal::IndexEntry entry;
    entry.offset = offset_;
    entry.compressed_bytes = frame.compressed_bytes;
    entry.uncompressed_bytes = frame.uncompressed_bytes;
    entry.first_record = records_total_ - records_in_block_;
    entry.record_count = frame.record_count;
    entry.checksum = frame.checksum;
    index_.push_back(entry);
    std::string head;
    internal::PutBlockFrame(&head, frame);
    WriteBytes(head);
    WriteBytes(payload);
    SaveBlocksCounter().Add(1);
    buffer_.clear();
    records_in_block_ = 0;
  }

  std::ostream& os_;
  const bool with_links_;
  const bool compress_;
  const size_t block_bytes_;
  std::string body_;     // per-record scratch
  std::string buffer_;   // pending record frames (one chunk / one block)
  std::string scratch_;  // compressed payload scratch
  std::vector<internal::IndexEntry> index_;
  uint64_t offset_ = 0;
  uint64_t records_in_block_ = 0;
  uint64_t records_total_ = 0;
};

bool AnyLinkMatrices(const std::vector<TraceRecord>& records) {
  for (const TraceRecord& record : records) {
    if (record.cluster.has_link_matrix()) return true;
  }
  return false;
}

void SaveV2Common(std::ostream& os, const std::vector<TraceRecord>& records,
                  bool compress, size_t block_bytes) {
  obs::ScopedTimer timer(SaveLatency());
  // The extended (flag-bearing) header is emitted only when a flag is
  // actually needed, so plain link-free corpora keep producing images
  // bitwise identical to the original v2 encoding and stay loadable by
  // pre-extension readers.
  V2ImageWriter writer(os, AnyLinkMatrices(records), compress, block_bytes);
  writer.WriteHeader(static_cast<uint64_t>(records.size()));
  for (const TraceRecord& record : records) writer.Append(record);
  const uint64_t bytes = writer.Finish();
  SaveRecordsCounter().Add(records.size());
  SaveBytesCounter().Add(bytes);
}

bool LoadPlainRecords(internal::Cursor cur, const internal::HeaderInfo& header,
                      std::vector<TraceRecord>* records) {
  if (header.record_count > std::numeric_limits<uint32_t>::max() ||
      !cur.CountFits(static_cast<uint32_t>(header.record_count), 4)) {
    return false;
  }
  records->reserve(static_cast<size_t>(header.record_count));
  if (!internal::ParseRecordFrames(&cur, header.record_count,
                                   header.link_matrices(), records)) {
    return false;
  }
  return cur.remaining() == 0;  // trailing garbage
}

bool LoadCompressedBlocks(internal::Cursor cur, const char* base, size_t size,
                          const internal::HeaderInfo& header,
                          std::vector<TraceRecord>* records) {
  const bool link_fields = header.link_matrices();
  const unsigned char* ubase = reinterpret_cast<const unsigned char*>(base);
  std::vector<internal::IndexEntry> walked;
  std::string payload;
  uint64_t decoded = 0;
  while (decoded < header.record_count) {
    internal::IndexEntry entry;
    entry.offset = static_cast<uint64_t>(cur.p - ubase);
    internal::BlockFrame frame;
    if (!internal::GetBlockFrame(&cur, &frame)) return false;
    if (frame.record_count == 0 ||
        frame.record_count > header.record_count - decoded) {
      return false;
    }
    if (cur.remaining() < frame.compressed_bytes) return false;
    if (!internal::VerifyBlockPayload(cur.p, frame) ||
        !internal::InflateBlockPayload(cur.p, frame, &payload)) {
      return false;
    }
    cur.Skip(frame.compressed_bytes);
    internal::Cursor body{
        reinterpret_cast<const unsigned char*>(payload.data()),
        reinterpret_cast<const unsigned char*>(payload.data()) +
            payload.size()};
    if (!internal::ParseRecordFrames(&body, frame.record_count, link_fields,
                                     records)) {
      return false;
    }
    if (body.remaining() != 0) return false;  // frame's record count lied
    entry.compressed_bytes = frame.compressed_bytes;
    entry.uncompressed_bytes = frame.uncompressed_bytes;
    entry.first_record = decoded;
    entry.record_count = frame.record_count;
    entry.checksum = frame.checksum;
    walked.push_back(entry);
    decoded += frame.record_count;
  }
  // The trailing index must agree exactly with the blocks just walked: a
  // truncated, tampered or missing index fails the load even though every
  // record decoded (callers keep what was decoded before the error).
  internal::Trailer trailer;
  if (!internal::ParseTrailer(base, size, &trailer)) return false;
  if (trailer.num_blocks != walked.size()) return false;
  if (trailer.index_offset != static_cast<uint64_t>(cur.p - ubase)) {
    return false;
  }
  const uint64_t index_bytes =
      trailer.num_blocks * internal::kIndexEntryBytes;
  if (cur.remaining() != index_bytes + internal::kTrailerBytes) return false;
  if (common::Fnv1a64(cur.p, index_bytes) != trailer.index_checksum) {
    return false;
  }
  for (const internal::IndexEntry& expect : walked) {
    internal::IndexEntry got;
    if (!internal::GetIndexEntry(&cur, &got)) return false;
    if (got.offset != expect.offset ||
        got.compressed_bytes != expect.compressed_bytes ||
        got.uncompressed_bytes != expect.uncompressed_bytes ||
        got.first_record != expect.first_record ||
        got.record_count != expect.record_count ||
        got.checksum != expect.checksum) {
      return false;
    }
  }
  return true;
}

}  // namespace

void SaveTraces(std::ostream& os, const std::vector<TraceRecord>& records) {
  obs::ScopedTimer timer(SaveLatency());
  const auto start = os.tellp();
  os.precision(17);
  os << kHeader << '\n';
  for (const TraceRecord& record : records) {
    internal::AppendRecordTextV1(os, record);
  }
  SaveRecordsCounter().Add(records.size());
  const auto end = os.tellp();
  if (start >= 0 && end > start) {
    SaveBytesCounter().Add(static_cast<uint64_t>(end - start));
  }
}

void SaveTracesV2(std::ostream& os, const std::vector<TraceRecord>& records) {
  SaveV2Common(os, records, /*compress=*/false, /*block_bytes=*/0);
}

void SaveTracesV2Compressed(std::ostream& os,
                            const std::vector<TraceRecord>& records,
                            size_t block_bytes) {
  SaveV2Common(os, records, /*compress=*/true, block_bytes);
}

bool LoadTracesV2(const char* data, size_t size,
                  std::vector<TraceRecord>* records) {
  COSTREAM_CHECK(records != nullptr);
  records->clear();
  obs::ScopedTimer timer(LoadLatency());
  internal::Cursor cur{reinterpret_cast<const unsigned char*>(data),
                       reinterpret_cast<const unsigned char*>(data) + size};
  internal::HeaderInfo header;
  if (!internal::ParseV2Header(&cur, &header)) return false;
  const bool ok = header.compressed()
                      ? LoadCompressedBlocks(cur, data, size, header, records)
                      : LoadPlainRecords(cur, header, records);
  if (!ok) return false;
  LoadRecordsCounter().Add(records->size());
  LoadBytesCounter().Add(size);
  return true;
}

bool LoadTraces(std::istream& is, std::vector<TraceRecord>* records) {
  COSTREAM_CHECK(records != nullptr);
  records->clear();
  // Peek enough bytes to tell the formats apart, then hand the stream (v1)
  // or a fully buffered image (v2) to the right parser.
  char magic[sizeof(internal::kMagicV2)] = {};
  is.read(magic, sizeof(magic));
  const std::streamsize got = is.gcount();
  if (got == static_cast<std::streamsize>(sizeof(magic)) &&
      internal::IsV2Image(magic, sizeof(magic))) {
    std::string image(magic, sizeof(magic));
    std::ostringstream rest;
    rest << is.rdbuf();
    image.append(rest.str());
    return LoadTracesV2(image.data(), image.size(), records);
  }
  // Text path: un-read the probe bytes and parse lines.
  is.clear();
  for (std::streamsize i = got; i > 0; --i) {
    is.putback(magic[i - 1]);
    if (is.fail()) return false;
  }
  obs::ScopedTimer timer(LoadLatency());
  const bool ok = LoadTracesV1(is, records);
  if (ok) LoadRecordsCounter().Add(records->size());
  return ok;
}

bool SaveTracesToFile(const std::string& path,
                      const std::vector<TraceRecord>& records,
                      TraceFormat format) {
  const bool binary = format != TraceFormat::kTextV1;
  std::ofstream os(path, binary ? std::ios::out | std::ios::binary
                                : std::ios::out);
  if (!os) return false;
  switch (format) {
    case TraceFormat::kTextV1:
      SaveTraces(os, records);
      break;
    case TraceFormat::kBinaryV2:
      SaveTracesV2(os, records);
      break;
    case TraceFormat::kBinaryV2Compressed:
      SaveTracesV2Compressed(os, records);
      break;
  }
  return os.good();
}

bool LoadTracesFromFile(const std::string& path,
                        std::vector<TraceRecord>* records) {
  COSTREAM_CHECK(records != nullptr);
  // The file is memory-mapped so the v2 parser runs zero-copy over it; the
  // v1 text parser still needs a stream, which costs one copy.
  common::MappedFile file;
  if (!file.Open(path)) return false;
  if (internal::IsV2Image(file.data(), file.size())) {
    return LoadTracesV2(file.data(), file.size(), records);
  }
  std::istringstream text(std::string(file.data(), file.size()));
  return LoadTraces(text, records);
}

// --- TraceWriter -------------------------------------------------------------

struct TraceWriter::Impl {
  std::ofstream os;
  Options options;
  std::unique_ptr<V2ImageWriter> v2;  // null for the v1 text format
  uint64_t records = 0;
  bool open = false;
};

TraceWriter::TraceWriter() = default;

TraceWriter::~TraceWriter() {
  if (impl_ != nullptr && impl_->open) Finish();
}

bool TraceWriter::Open(const std::string& path) {
  return Open(path, Options{});
}

bool TraceWriter::Open(const std::string& path, const Options& options) {
  COSTREAM_CHECK_MSG(impl_ == nullptr || !impl_->open,
                     "TraceWriter::Open: writer already open");
  impl_ = std::make_unique<Impl>();
  impl_->options = options;
  const bool binary = options.format != TraceFormat::kTextV1;
  impl_->os.open(path, binary ? std::ios::out | std::ios::binary
                              : std::ios::out);
  if (!impl_->os) {
    impl_.reset();
    return false;
  }
  if (binary) {
    impl_->v2 = std::make_unique<V2ImageWriter>(
        impl_->os, options.link_sections,
        options.format == TraceFormat::kBinaryV2Compressed,
        options.block_bytes);
    // The true record count is unknown until Finish(), which back-patches
    // the u64 at byte offset 16.
    impl_->v2->WriteHeader(0);
  } else {
    impl_->os.precision(17);
    impl_->os << kHeader << '\n';
  }
  impl_->open = true;
  return impl_->os.good();
}

bool TraceWriter::Append(const TraceRecord& record) {
  COSTREAM_CHECK_MSG(impl_ != nullptr && impl_->open,
                     "TraceWriter::Append: writer not open");
  if (impl_->v2 != nullptr) {
    // Link matrices change every body's layout, so they must be declared at
    // Open time; a surprise linked record cannot be encoded mid-stream.
    if (!impl_->options.link_sections && record.cluster.has_link_matrix()) {
      return false;
    }
    impl_->v2->Append(record);
  } else {
    internal::AppendRecordTextV1(impl_->os, record);
  }
  ++impl_->records;
  return impl_->os.good();
}

bool TraceWriter::Finish() {
  if (impl_ == nullptr || !impl_->open) return false;
  impl_->open = false;
  if (impl_->v2 != nullptr) {
    const uint64_t bytes = impl_->v2->Finish();
    std::string count;
    internal::PutU64(&count, impl_->records);
    impl_->os.seekp(16);  // header record-count slot
    impl_->os.write(count.data(),
                    static_cast<std::streamsize>(count.size()));
    SaveBytesCounter().Add(bytes);
  } else {
    const auto end = impl_->os.tellp();
    if (end > 0) SaveBytesCounter().Add(static_cast<uint64_t>(end));
  }
  SaveRecordsCounter().Add(impl_->records);
  impl_->os.flush();
  const bool ok = impl_->os.good();
  impl_->os.close();
  return ok;
}

uint64_t TraceWriter::records_written() const {
  return impl_ != nullptr ? impl_->records : 0;
}

// --- InspectTraceFile --------------------------------------------------------

bool InspectTraceFile(const std::string& path, TraceFileInfo* info) {
  COSTREAM_CHECK(info != nullptr);
  *info = TraceFileInfo{};
  common::MappedFile file;
  if (!file.Open(path)) return false;
  info->file_bytes = file.size();

  if (internal::IsV2Image(file.data(), file.size())) {
    internal::Cursor cur{
        reinterpret_cast<const unsigned char*>(file.data()),
        reinterpret_cast<const unsigned char*>(file.data()) + file.size()};
    internal::HeaderInfo header;
    if (!internal::ParseV2Header(&cur, &header)) return false;
    info->version = 2;
    info->header_bytes = header.header_bytes;
    info->record_count = header.record_count;
    info->link_matrices = header.link_matrices();
    info->compressed = header.compressed();
    if (!header.compressed()) return true;

    // Locate and checksum-verify the trailing block index. Semantic
    // validation of the entries is deliberately not done here — the lint
    // rules (TR002+) and the mmap reader make their own judgments from the
    // raw entries this returns.
    internal::Trailer trailer;
    if (!internal::ParseTrailer(file.data(), file.size(), &trailer)) {
      return true;  // readable file, broken index: index_ok stays false
    }
    const uint64_t trailer_offset = file.size() - internal::kTrailerBytes;
    if (trailer.index_offset < header.header_bytes ||
        trailer.index_offset > trailer_offset) {
      return true;
    }
    const uint64_t index_bytes = trailer_offset - trailer.index_offset;
    if (index_bytes % internal::kIndexEntryBytes != 0 ||
        trailer.num_blocks != index_bytes / internal::kIndexEntryBytes) {
      return true;
    }
    const unsigned char* index_begin =
        reinterpret_cast<const unsigned char*>(file.data()) +
        trailer.index_offset;
    if (common::Fnv1a64(index_begin, index_bytes) != trailer.index_checksum) {
      return true;
    }
    internal::Cursor icur{index_begin, index_begin + index_bytes};
    info->blocks.reserve(static_cast<size_t>(trailer.num_blocks));
    for (uint64_t b = 0; b < trailer.num_blocks; ++b) {
      internal::IndexEntry entry;
      if (!internal::GetIndexEntry(&icur, &entry)) return true;
      TraceBlockInfo block;
      block.offset = entry.offset;
      block.compressed_bytes = entry.compressed_bytes;
      block.uncompressed_bytes = entry.uncompressed_bytes;
      block.first_record = entry.first_record;
      block.record_count = entry.record_count;
      block.checksum = entry.checksum;
      info->blocks.push_back(block);
    }
    info->index_offset = trailer.index_offset;
    info->index_ok = true;
    return true;
  }

  // v1 text: match the header line, then count record stanzas.
  const size_t header_len = sizeof(kHeader) - 1;
  if (file.size() < header_len ||
      std::memcmp(file.data(), kHeader, header_len) != 0 ||
      (file.size() > header_len && file.data()[header_len] != '\n')) {
    return false;
  }
  info->version = 1;
  info->header_bytes = header_len + 1;
  const char* data = file.data();
  const size_t size = file.size();
  size_t line_start = info->header_bytes;
  while (line_start < size) {
    const char* nl = static_cast<const char*>(
        std::memchr(data + line_start, '\n', size - line_start));
    const size_t line_len =
        (nl != nullptr ? static_cast<size_t>(nl - data) : size) - line_start;
    if (line_len == 6 && std::memcmp(data + line_start, "record", 6) == 0) {
      ++info->record_count;
    }
    if (nl == nullptr) break;
    line_start = static_cast<size_t>(nl - data) + 1;
  }
  return true;
}

}  // namespace costream::workload
