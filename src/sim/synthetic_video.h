// Generated synthetic video stream: ground-truth event timeline plus the
// per-frame feature vectors a lightweight detector pipeline would produce.
#ifndef EVENTHIT_SIM_SYNTHETIC_VIDEO_H_
#define EVENTHIT_SIM_SYNTHETIC_VIDEO_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/event_timeline.h"
#include "sim/interval.h"
#include "sim/scene_spec.h"

namespace eventhit::sim {

/// One annotated action unit: event type + occurrence interval. The merged,
/// time-sorted action-unit stream feeds the APP-VAE baseline.
struct ActionUnit {
  size_t event_type;
  Interval interval;
};

/// The frames t < end with t mod period < length: one window of `length`
/// frames at the start of every period, up to an exclusive `end`. {M, H}
/// selects exactly the frames a stream's collection windows read (windows
/// end at M-1, M-1+H, ...); a stream that stops pushing sets `end` one past
/// its last window. The default selects every frame, as does any
/// length == period with no end.
struct FrameSelection {
  int64_t length = 1;
  int64_t period = 1;
  int64_t end = std::numeric_limits<int64_t>::max();

  bool Contains(int64_t t) const { return t < end && t % period < length; }
  /// Storage row of a selected frame: selected frames are stored
  /// consecutively, so a window is `length` contiguous rows.
  int64_t Row(int64_t t) const { return t / period * length + t % period; }
  /// Rows that the selected frames of [0, num_frames) occupy.
  int64_t Rows(int64_t num_frames) const {
    const int64_t stored = std::min(num_frames, end);
    return stored / period * length + std::min(stored % period, length);
  }

  bool operator==(const FrameSelection&) const = default;
};

/// One stream of a generation group: its spec and seed.
struct VideoSource {
  const DatasetSpec* spec = nullptr;
  uint64_t seed = 0;
};

/// Immutable generated stream. The features of the selected frames are
/// stored row-major (rows x feature_dim), one row per selected frame.
class SyntheticVideo {
 public:
  /// Generates the stream for `spec` deterministically from `seed`. The
  /// timeline and action units always cover every frame; features and
  /// detector counts are materialized for the `selection` only, and each
  /// selected frame's are bit-identical to the whole video's. A frame left
  /// out still advances every random stream by exactly its draws; past the
  /// selection's end, each channel's last pass stops drawing. Runs as a
  /// group of one (GenerateGroup).
  static SyntheticVideo Generate(const DatasetSpec& spec, uint64_t seed,
                                 FrameSelection selection = {});

  /// Generates one video per source, each bit for bit equal to
  /// Generate(*source.spec, source.seed, selection). The sources must share
  /// a shape: num_frames and the event, distractor and noise channel
  /// counts (gaps, leads, rates and seeds may differ). Streams are
  /// generated four at a time; where the CPU has AVX2, the runs of frames
  /// the selection leaves out step the four streams' generators in lockstep
  /// lanes (sim/skip_kernels.h, DESIGN.md §5g).
  static std::vector<SyntheticVideo> GenerateGroup(
      std::span<const VideoSource> sources, FrameSelection selection);

  /// Generates a whole stream whose occurrence distribution *shifts*: the
  /// first `before.num_frames` frames follow `before`, the rest follow
  /// `after` (same event types and feature layout required). Used to
  /// exercise the drift-detection extension (§VIII future work): a model
  /// trained on the `before` regime degrades after the shift point.
  static SyntheticVideo GenerateWithShift(const DatasetSpec& before,
                                          const DatasetSpec& after,
                                          uint64_t seed);

  /// Frame index where the `after` regime begins (num_frames() for
  /// unshifted streams).
  int64_t shift_frame() const { return shift_frame_; }

  /// Reassembles a whole stream from its parts (deserialization, external
  /// feature imports). `features` is row-major num_frames x
  /// spec.FeatureDim();
  /// `counts` holds one series of num_frames detector counts per event
  /// type. The action-unit annotation stream is rebuilt from the timeline.
  static SyntheticVideo FromParts(DatasetSpec spec, EventTimeline timeline,
                                  std::vector<float> features,
                                  std::vector<std::vector<float>> counts,
                                  int64_t shift_frame);

  const DatasetSpec& spec() const { return spec_; }
  const EventTimeline& timeline() const { return timeline_; }

  int64_t num_frames() const { return timeline_.num_frames(); }
  size_t feature_dim() const { return spec_.FeatureDim(); }
  size_t num_event_types() const { return spec_.events.size(); }

  /// The frames whose features and counts are stored.
  const FrameSelection& selection() const { return selection_; }

  /// Pointer to the D features of frame `t`, which must be selected.
  const float* FrameFeatures(int64_t t) const;

  /// Simulated detector object count for event `k`'s target classes at
  /// frame `t`, which must be selected (used by the VQS baseline).
  double ObjectCount(size_t k, int64_t t) const;

  /// All action units across event types, sorted by start frame.
  const std::vector<ActionUnit>& action_units() const { return action_units_; }

 private:
  // The one generation body: sources[0, count) into videos[0, count),
  // count <= 4, in lanes when `use_lanes`.
  static void GenerateLanes(const VideoSource* sources, int count,
                            const FrameSelection& selection, bool use_lanes,
                            SyntheticVideo* videos);

  DatasetSpec spec_;
  EventTimeline timeline_;
  FrameSelection selection_;
  std::vector<float> features_;            // rows x D
  std::vector<std::vector<float>> counts_;  // per event type, rows
  std::vector<ActionUnit> action_units_;
  int64_t shift_frame_ = 0;  // Set by Generate/GenerateWithShift.
};

}  // namespace eventhit::sim

#endif  // EVENTHIT_SIM_SYNTHETIC_VIDEO_H_
