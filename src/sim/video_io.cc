#include "sim/video_io.h"

#include <cstdint>
#include <cstdio>
#include <memory>

namespace eventhit::sim {
namespace {

constexpr uint32_t kMagic = 0x45565653;  // "EVVS"
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t size) {
  return std::fwrite(data, 1, size, f) == size;
}

bool ReadBytes(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

template <typename T>
bool WriteScalar(std::FILE* f, T value) {
  return WriteBytes(f, &value, sizeof(value));
}

template <typename T>
bool ReadScalar(std::FILE* f, T* value) {
  return ReadBytes(f, value, sizeof(*value));
}

bool WriteString(std::FILE* f, const std::string& s) {
  return WriteScalar(f, static_cast<uint32_t>(s.size())) &&
         WriteBytes(f, s.data(), s.size());
}

bool ReadString(std::FILE* f, std::string* s) {
  uint32_t size = 0;
  if (!ReadScalar(f, &size)) return false;
  if (size > (1u << 20)) return false;  // Corrupt-length guard.
  s->assign(size, '\0');
  return ReadBytes(f, s->data(), size);
}

// Bytes between the read position and the end of the file; -1 when the
// file cannot seek.
int64_t BytesLeft(std::FILE* f) {
  const long here = std::ftell(f);
  if (here < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (end < here || std::fseek(f, here, SEEK_SET) != 0) return -1;
  return end - here;
}

}  // namespace

Status SaveVideo(const SyntheticVideo& video, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return InvalidArgumentError("cannot open for writing: " + path);
  }
  std::FILE* f = file.get();
  const DatasetSpec& spec = video.spec();

  bool ok = WriteScalar(f, kMagic) && WriteScalar(f, kVersion) &&
            WriteString(f, spec.name) &&
            WriteScalar<int64_t>(f, spec.num_frames) &&
            WriteScalar<int32_t>(f, spec.collection_window) &&
            WriteScalar<int32_t>(f, spec.horizon) &&
            WriteScalar<int32_t>(f, spec.num_distractor_channels) &&
            WriteScalar<int32_t>(f, spec.num_noise_channels) &&
            WriteScalar<int64_t>(f, video.shift_frame()) &&
            WriteScalar<uint32_t>(f,
                                  static_cast<uint32_t>(spec.events.size()));
  if (!ok) return InternalError("short write (header): " + path);

  for (const EventTypeSpec& ev : spec.events) {
    if (!WriteString(f, ev.name) || !WriteScalar(f, ev.mean_gap) ||
        !WriteScalar(f, ev.gap_cv) || !WriteScalar(f, ev.duration_mean) ||
        !WriteScalar(f, ev.duration_std)) {
      return InternalError("short write (event spec): " + path);
    }
  }

  // Timeline.
  for (size_t k = 0; k < spec.events.size(); ++k) {
    const auto& occurrences = video.timeline().occurrences(k);
    if (!WriteScalar<uint64_t>(f, occurrences.size())) {
      return InternalError("short write (timeline size): " + path);
    }
    for (const Interval& occ : occurrences) {
      if (!WriteScalar<int64_t>(f, occ.start) ||
          !WriteScalar<int64_t>(f, occ.end)) {
        return InternalError("short write (timeline): " + path);
      }
    }
  }

  // Features + counts.
  const size_t d = spec.FeatureDim();
  for (int64_t t = 0; t < spec.num_frames; ++t) {
    if (!WriteBytes(f, video.FrameFeatures(t), d * sizeof(float))) {
      return InternalError("short write (features): " + path);
    }
  }
  for (size_t k = 0; k < spec.events.size(); ++k) {
    for (int64_t t = 0; t < spec.num_frames; ++t) {
      const auto count = static_cast<float>(video.ObjectCount(k, t));
      if (!WriteScalar(f, count)) {
        return InternalError("short write (counts): " + path);
      }
    }
  }
  return OkStatus();
}

Result<SyntheticVideo> LoadVideo(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return NotFoundError("cannot open for reading: " + path);
  }
  std::FILE* f = file.get();

  uint32_t magic = 0, version = 0;
  if (!ReadScalar(f, &magic) || !ReadScalar(f, &version)) {
    return InvalidArgumentError("truncated header: " + path);
  }
  if (magic != kMagic) return InvalidArgumentError("bad magic: " + path);
  if (version != kVersion) {
    return InvalidArgumentError("unsupported version: " + path);
  }

  DatasetSpec spec;
  int32_t collection_window = 0, horizon = 0, distractors = 0, noise = 0;
  int64_t shift_frame = 0;
  uint32_t num_events = 0;
  if (!ReadString(f, &spec.name) || !ReadScalar(f, &spec.num_frames) ||
      !ReadScalar(f, &collection_window) || !ReadScalar(f, &horizon) ||
      !ReadScalar(f, &distractors) || !ReadScalar(f, &noise) ||
      !ReadScalar(f, &shift_frame) || !ReadScalar(f, &num_events)) {
    return InvalidArgumentError("truncated spec: " + path);
  }
  if (spec.num_frames <= 0 || num_events == 0 || num_events > 1024) {
    return InvalidArgumentError("implausible spec values: " + path);
  }
  if (collection_window < 1 || horizon < 1) {
    return InvalidArgumentError("collection window or horizon below one: " +
                                path);
  }
  if (distractors < 0 || noise < 0) {
    return InvalidArgumentError("negative channel count: " + path);
  }
  if (shift_frame <= 0 || shift_frame > spec.num_frames) {
    return InvalidArgumentError("shift frame outside the stream: " + path);
  }
  // The file ends with num_frames rows of D features and K counts. Sizing
  // them against the bytes left keeps a corrupt frame count from sizing
  // any allocation.
  const uint64_t row_bytes =
      (3 * uint64_t{num_events} + static_cast<uint64_t>(distractors) +
       static_cast<uint64_t>(noise)) *
      sizeof(float);
  const int64_t left = BytesLeft(f);
  if (left < 0 || static_cast<uint64_t>(spec.num_frames) >
                      static_cast<uint64_t>(left) / row_bytes) {
    return InvalidArgumentError("frame count exceeds the file: " + path);
  }
  spec.collection_window = collection_window;
  spec.horizon = horizon;
  spec.num_distractor_channels = distractors;
  spec.num_noise_channels = noise;

  for (uint32_t k = 0; k < num_events; ++k) {
    EventTypeSpec ev;
    if (!ReadString(f, &ev.name) || !ReadScalar(f, &ev.mean_gap) ||
        !ReadScalar(f, &ev.gap_cv) || !ReadScalar(f, &ev.duration_mean) ||
        !ReadScalar(f, &ev.duration_std)) {
      return InvalidArgumentError("truncated event spec: " + path);
    }
    spec.events.push_back(std::move(ev));
  }

  std::vector<std::vector<Interval>> intervals(num_events);
  for (uint32_t k = 0; k < num_events; ++k) {
    uint64_t count = 0;
    if (!ReadScalar(f, &count) ||
        count > static_cast<uint64_t>(spec.num_frames)) {
      return InvalidArgumentError("truncated timeline: " + path);
    }
    intervals[k].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Interval occ;
      if (!ReadScalar(f, &occ.start) || !ReadScalar(f, &occ.end)) {
        return InvalidArgumentError("truncated timeline entry: " + path);
      }
      // EventTimeline::FromIntervals CHECKs the same: non-empty, inside
      // the stream, each starting after the previous one ends.
      if (occ.empty() || occ.start < 0 || occ.end >= spec.num_frames ||
          (i > 0 && occ.start <= intervals[k].back().end)) {
        return InvalidArgumentError("invalid timeline interval: " + path);
      }
      intervals[k].push_back(occ);
    }
  }

  const size_t d = spec.FeatureDim();
  std::vector<float> features(static_cast<size_t>(spec.num_frames) * d);
  if (!ReadBytes(f, features.data(), features.size() * sizeof(float))) {
    return InvalidArgumentError("truncated features: " + path);
  }
  std::vector<std::vector<float>> counts(
      num_events, std::vector<float>(static_cast<size_t>(spec.num_frames)));
  for (auto& series : counts) {
    if (!ReadBytes(f, series.data(), series.size() * sizeof(float))) {
      return InvalidArgumentError("truncated counts: " + path);
    }
  }

  EventTimeline timeline =
      EventTimeline::FromIntervals(std::move(intervals), spec.num_frames);
  return SyntheticVideo::FromParts(std::move(spec), std::move(timeline),
                                   std::move(features), std::move(counts),
                                   shift_frame);
}

}  // namespace eventhit::sim
