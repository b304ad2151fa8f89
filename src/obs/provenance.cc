#include "obs/provenance.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/fnv.h"
#include "obs/json_util.h"

namespace eventhit::obs {

namespace {

// Fold tags disambiguate stamp kinds inside the running digest.
constexpr int64_t kTagDecision = 0x44454349;   // "DECI"
constexpr int64_t kTagInference = 0x494e4652;  // "INFR"
constexpr int64_t kTagRelay = 0x52454c59;      // "RELY"
constexpr int64_t kTagVerdict = 0x56455244;    // "VERD"

void CopyName(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

const char* ProvenanceRelayOutcomeName(int8_t outcome) {
  // Mirrors cloud::RelayOutcome (provenance_test pins the mapping).
  switch (outcome) {
    case 0: return "delivered";
    case 1: return "buffered";
    case 2: return "dropped_queue_full";
    case 3: return "dropped_deadline";
    case 4: return "dropped_breaker_open";
    default: return "none";
  }
}

const char* ProvenanceBreakerName(int8_t state) {
  // Mirrors cloud::BreakerState (provenance_test pins the mapping).
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half_open";
    default: return "none";
  }
}

const char* ProvenanceFlushName(int8_t reason) {
  switch (reason) {
    case kProvFlushFull: return "full";
    case kProvFlushDeadline: return "deadline";
    case kProvFlushFinal: return "final";
    case kProvFlushSolo: return "solo";
    default: return "none";
  }
}

const int64_t* ProvenanceResidencyBounds() {
  // Matches obs::DelayTickBounds() (fleet.request.delay_ticks buckets).
  static const int64_t kBounds[kProvenanceResidencyBuckets - 1] = {
      0, 1, 2, 3, 4, 6, 8, 12, 16, 32};
  return kBounds;
}

double ProvenanceRollup::ResidencyPercentile(double q) const {
  if (residency_count <= 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(residency_count) + 0.5));
  const int64_t* bounds = ProvenanceResidencyBounds();
  int64_t cumulative = 0;
  for (int b = 0; b < kProvenanceResidencyBuckets - 1; ++b) {
    cumulative += residency_hist[b];
    if (cumulative >= rank) return static_cast<double>(bounds[b]);
  }
  return static_cast<double>(residency_max);
}

StreamProvenance::StreamProvenance(int64_t stream_index, int collection_window,
                                   int horizon, size_t ring_capacity)
    : stream_index_(stream_index),
      collection_window_(collection_window),
      horizon_(horizon),
      ring_(std::max<size_t>(ring_capacity, 2)),
      digest_(kFnvOffset) {}

int64_t StreamProvenance::MakeDecisionId(int64_t stream_index,
                                         int64_t boundary_index) {
  return (stream_index << 32) | (boundary_index & 0xffffffffll);
}

int64_t StreamProvenance::StreamOfId(int64_t decision_id) {
  return decision_id >> 32;
}

int64_t StreamProvenance::BoundaryOfId(int64_t decision_id) {
  return decision_id & 0xffffffffll;
}

int64_t StreamProvenance::BoundaryIndexOfAnchor(int64_t anchor) const {
  return (anchor - (collection_window_ - 1)) / horizon_;
}

int64_t StreamProvenance::AnchorOfBoundary(int64_t boundary_index) const {
  return collection_window_ - 1 + boundary_index * horizon_;
}

int64_t StreamProvenance::DecisionIdOfAnchor(int64_t anchor) const {
  return MakeDecisionId(stream_index_, BoundaryIndexOfAnchor(anchor));
}

int64_t StreamProvenance::BoundaryForFrame(int64_t frame) const {
  const int64_t first = collection_window_ - 1;
  if (frame <= first) return 0;
  return (frame - first) / horizon_;
}

ProvenanceRecord* StreamProvenance::Resident(int64_t anchor) {
  const int64_t boundary = BoundaryIndexOfAnchor(anchor);
  ProvenanceRecord& slot = ring_[static_cast<size_t>(
      boundary % static_cast<int64_t>(ring_.size()))];
  // A slot holds the stamp target only while its stored id matches —
  // otherwise the boundary was evicted and the stamp is dropped (the
  // digest and rollup fold from the stamp arguments, never the ring, so
  // eviction cannot perturb either).
  if (slot.boundary_index != boundary) return nullptr;
  return &slot;
}

void StreamProvenance::FoldI64(int64_t v) {
  digest_ = FnvU64(digest_, static_cast<uint64_t>(v));
}

void StreamProvenance::FoldBytes(std::string_view bytes) {
  static constexpr unsigned char kDelimiter = 0xff;  // Length delimiter.
  digest_ = FnvBytes(digest_, bytes.data(), bytes.size());
  digest_ = FnvBytes(digest_, &kDelimiter, 1);
}

void StreamProvenance::OpenBoundary(int64_t anchor, bool reused,
                                    std::string_view policy) {
  const int64_t boundary = BoundaryIndexOfAnchor(anchor);
  ProvenanceRecord& slot = ring_[static_cast<size_t>(
      boundary % static_cast<int64_t>(ring_.size()))];
  if (slot.boundary_index >= 0 && slot.boundary_index != boundary) {
    ++overflowed_;
  }
  slot = ProvenanceRecord{};
  slot.decision_id = MakeDecisionId(stream_index_, boundary);
  slot.anchor = anchor;
  slot.boundary_index = boundary;
  slot.reused = reused;
  CopyName(slot.policy, sizeof(slot.policy), policy);
  ++rollup_.boundaries;
}

void StreamProvenance::StampBatch(int64_t anchor, int64_t batch_id,
                                  int8_t flush_reason,
                                  int64_t residency_ticks) {
  if (ProvenanceRecord* record = Resident(anchor)) {
    record->batch_id = batch_id;
    record->flush_reason = flush_reason;
    record->residency_ticks = static_cast<int32_t>(residency_ticks);
  }
  ++rollup_.residency_count;
  rollup_.residency_sum += residency_ticks;
  rollup_.residency_max = std::max(rollup_.residency_max, residency_ticks);
  const int64_t* bounds = ProvenanceResidencyBounds();
  int bucket = kProvenanceResidencyBuckets - 1;
  for (int b = 0; b < kProvenanceResidencyBuckets - 1; ++b) {
    if (residency_ticks <= bounds[b]) {
      bucket = b;
      break;
    }
  }
  ++rollup_.residency_hist[bucket];
  // Batch placement is a fleet-scheduling artifact, not part of the
  // clock-pure causal chain: no digest fold.
}

void StreamProvenance::StampInference(int64_t anchor, std::string_view backend,
                                      int64_t calibrator_generation) {
  if (ProvenanceRecord* record = Resident(anchor)) {
    CopyName(record->backend, sizeof(record->backend), backend);
    record->calibrator_generation =
        static_cast<int32_t>(calibrator_generation);
  }
  rollup_.max_generation =
      std::max(rollup_.max_generation, calibrator_generation);
  FoldI64(kTagInference);
  FoldI64(anchor);
  FoldBytes(backend);
  FoldI64(calibrator_generation);
}

void StreamProvenance::StampRelay(int64_t anchor, int attempts, int8_t outcome,
                                  int8_t breaker_state) {
  if (ProvenanceRecord* record = Resident(anchor)) {
    record->relay_attempts =
        static_cast<int16_t>(record->relay_attempts + attempts);
    switch (outcome) {
      case 0: ++record->relay_delivered; break;
      case 1: ++record->relay_buffered; break;
      default: ++record->relay_dropped; break;
    }
    record->last_outcome = outcome;
    record->breaker_state = breaker_state;
  }
  rollup_.relay_attempts += attempts;
  switch (outcome) {
    case 0: ++rollup_.relay_delivered; break;
    case 1: ++rollup_.relay_buffered; break;
    default: ++rollup_.relay_dropped; break;
  }
  rollup_.last_breaker_state = breaker_state;
  FoldI64(kTagRelay);
  FoldI64(anchor);
  FoldI64(attempts);
  FoldI64(outcome);
  FoldI64(breaker_state);
}

void StreamProvenance::StampDecision(int64_t anchor, bool reused,
                                     std::string_view policy,
                                     uint32_t exists_mask, int events_present,
                                     int relay_orders, int64_t frames_billed,
                                     double max_existence) {
  if (ProvenanceRecord* record = Resident(anchor)) {
    record->exists_mask = exists_mask;
    record->events_present = static_cast<int16_t>(events_present);
    record->relay_orders = static_cast<int16_t>(relay_orders);
    record->frames_billed = static_cast<int32_t>(frames_billed);
    record->max_existence = max_existence;
  }
  if (reused) {
    ++rollup_.reused;
  } else {
    ++rollup_.scored;
  }
  rollup_.relay_orders += relay_orders;
  rollup_.frames_billed += frames_billed;
  FoldI64(kTagDecision);
  FoldI64(anchor);
  FoldI64(reused ? 1 : 0);
  FoldBytes(policy);
  FoldI64(static_cast<int64_t>(exists_mask));
  FoldI64(events_present);
  FoldI64(relay_orders);
  FoldI64(frames_billed);
  FoldI64(std::bit_cast<int64_t>(max_existence));
}

void StreamProvenance::StampVerdict(int64_t anchor, bool truth_present,
                                    bool missed, int miscovered_endpoints) {
  if (ProvenanceRecord* record = Resident(anchor)) {
    record->verdict_known = true;
    ++record->audited;
    if (truth_present) ++record->truth_present;
    if (missed) ++record->misses;
    record->miscovered =
        static_cast<int16_t>(record->miscovered + miscovered_endpoints);
  }
  ++rollup_.audited;
  if (truth_present) ++rollup_.truth_present;
  if (missed) ++rollup_.misses;
  rollup_.miscovered += miscovered_endpoints;
  FoldI64(kTagVerdict);
  FoldI64(anchor);
  FoldI64(truth_present ? 1 : 0);
  FoldI64(missed ? 1 : 0);
  FoldI64(miscovered_endpoints);
}

const ProvenanceRecord* StreamProvenance::Find(int64_t decision_id) const {
  const int64_t boundary = BoundaryOfId(decision_id);
  if (boundary < 0 || StreamOfId(decision_id) != stream_index_)
    return nullptr;
  const ProvenanceRecord& slot = ring_[static_cast<size_t>(
      boundary % static_cast<int64_t>(ring_.size()))];
  if (slot.decision_id != decision_id) return nullptr;
  return &slot;
}

const ProvenanceRecord* StreamProvenance::FindByAnchor(int64_t anchor) const {
  return Find(MakeDecisionId(stream_index_, BoundaryIndexOfAnchor(anchor)));
}

std::vector<ProvenanceRecord> StreamProvenance::ExportResident() const {
  std::vector<ProvenanceRecord> resident;
  for (const ProvenanceRecord& record : ring_) {
    if (record.boundary_index >= 0) resident.push_back(record);
  }
  std::sort(resident.begin(), resident.end(),
            [](const ProvenanceRecord& a, const ProvenanceRecord& b) {
              return a.boundary_index < b.boundary_index;
            });
  return resident;
}

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

std::string ProvenanceRecordText(const ProvenanceRecord& r) {
  std::string out;
  auto row = [&out](const char* key, const std::string& value) {
    out += "  ";
    out += key;
    const size_t pad = 22;
    const size_t len = std::strlen(key);
    out.append(len < pad ? pad - len : 1, ' ');
    out += value;
    out += '\n';
  };
  out += "decision " + std::to_string(r.decision_id) + " (stream " +
         std::to_string(StreamProvenance::StreamOfId(r.decision_id)) +
         ", boundary " + std::to_string(r.boundary_index) + ", anchor frame " +
         std::to_string(r.anchor) + ")\n";
  row("sched.policy", std::string(r.policy));
  row("sched.mode", r.reused ? "reused (policy skip)" : "scored");
  row("batch.id", r.batch_id < 0 ? std::string("-")
                                 : std::to_string(r.batch_id));
  row("batch.flush", ProvenanceFlushName(r.flush_reason));
  row("batch.residency_ticks",
      r.residency_ticks < 0 ? std::string("-")
                            : std::to_string(r.residency_ticks));
  row("infer.backend", r.backend[0] == '\0' ? std::string("-")
                                            : std::string(r.backend));
  row("infer.generation",
      r.calibrator_generation < 0
          ? std::string("-")
          : std::to_string(r.calibrator_generation));
  row("decide.exists_mask", "0x" + [&] {
        char buffer[16];
        std::snprintf(buffer, sizeof(buffer), "%x", r.exists_mask);
        return std::string(buffer);
      }());
  row("decide.events_present", std::to_string(r.events_present));
  row("decide.max_existence", FormatDouble(r.max_existence));
  row("relay.orders", std::to_string(r.relay_orders));
  row("relay.frames_billed", std::to_string(r.frames_billed));
  row("relay.attempts", std::to_string(r.relay_attempts));
  row("relay.delivered", std::to_string(r.relay_delivered));
  row("relay.buffered", std::to_string(r.relay_buffered));
  row("relay.dropped", std::to_string(r.relay_dropped));
  row("relay.last_outcome", ProvenanceRelayOutcomeName(r.last_outcome));
  row("relay.breaker", ProvenanceBreakerName(r.breaker_state));
  if (r.verdict_known) {
    row("audit.events", std::to_string(r.audited));
    row("audit.truth_present", std::to_string(r.truth_present));
    row("audit.misses", std::to_string(r.misses));
    row("audit.miscovered", std::to_string(r.miscovered));
  } else {
    row("audit.verdict", "pending (outside audited range)");
  }
  return out;
}

std::string ProvenanceRecordJson(const ProvenanceRecord& r) {
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value, bool quote) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    if (quote) {
      out += '"';
      out += JsonEscape(value);
      out += '"';
    } else {
      out += value;
    }
  };
  field("decision_id", std::to_string(r.decision_id), false);
  field("stream", std::to_string(StreamProvenance::StreamOfId(r.decision_id)),
        false);
  field("boundary", std::to_string(r.boundary_index), false);
  field("anchor", std::to_string(r.anchor), false);
  field("policy", r.policy, true);
  field("reused", r.reused ? "true" : "false", false);
  field("batch_id", std::to_string(r.batch_id), false);
  field("flush_reason", ProvenanceFlushName(r.flush_reason), true);
  field("residency_ticks", std::to_string(r.residency_ticks), false);
  field("backend", r.backend, true);
  field("calibrator_generation", std::to_string(r.calibrator_generation),
        false);
  field("exists_mask", std::to_string(r.exists_mask), false);
  field("events_present", std::to_string(r.events_present), false);
  field("max_existence", JsonNumber(r.max_existence), false);
  field("relay_orders", std::to_string(r.relay_orders), false);
  field("frames_billed", std::to_string(r.frames_billed), false);
  field("relay_attempts", std::to_string(r.relay_attempts), false);
  field("relay_delivered", std::to_string(r.relay_delivered), false);
  field("relay_buffered", std::to_string(r.relay_buffered), false);
  field("relay_dropped", std::to_string(r.relay_dropped), false);
  field("relay_last_outcome", ProvenanceRelayOutcomeName(r.last_outcome),
        true);
  field("breaker_state", ProvenanceBreakerName(r.breaker_state), true);
  field("verdict_known", r.verdict_known ? "true" : "false", false);
  field("audited", std::to_string(r.audited), false);
  field("truth_present", std::to_string(r.truth_present), false);
  field("misses", std::to_string(r.misses), false);
  field("miscovered", std::to_string(r.miscovered), false);
  out += '}';
  return out;
}

}  // namespace eventhit::obs
