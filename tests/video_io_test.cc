#include "sim/video_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/datasets.h"

namespace eventhit::sim {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

SyntheticVideo SmallVideo(uint64_t seed = 61) {
  DatasetSpec spec = MakeDatasetSpec(DatasetId::kThumos);
  spec.num_frames = 20000;
  return SyntheticVideo::Generate(spec, seed);
}

TEST(VideoIoTest, RoundTripPreservesEverything) {
  const SyntheticVideo original = SmallVideo();
  const std::string path = TempPath("video_roundtrip.evvs");
  ASSERT_TRUE(SaveVideo(original, path).ok());
  auto loaded = LoadVideo(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const SyntheticVideo& video = loaded.value();

  EXPECT_EQ(video.num_frames(), original.num_frames());
  EXPECT_EQ(video.feature_dim(), original.feature_dim());
  EXPECT_EQ(video.num_event_types(), original.num_event_types());
  EXPECT_EQ(video.shift_frame(), original.shift_frame());
  EXPECT_EQ(video.spec().name, original.spec().name);
  EXPECT_EQ(video.spec().collection_window,
            original.spec().collection_window);
  EXPECT_EQ(video.spec().horizon, original.spec().horizon);

  for (size_t k = 0; k < original.num_event_types(); ++k) {
    ASSERT_EQ(video.timeline().occurrences(k).size(),
              original.timeline().occurrences(k).size());
    for (size_t i = 0; i < original.timeline().occurrences(k).size(); ++i) {
      EXPECT_EQ(video.timeline().occurrences(k)[i],
                original.timeline().occurrences(k)[i]);
    }
  }
  for (int64_t t = 0; t < original.num_frames(); t += 997) {
    for (size_t c = 0; c < original.feature_dim(); ++c) {
      EXPECT_EQ(video.FrameFeatures(t)[c], original.FrameFeatures(t)[c]);
    }
    for (size_t k = 0; k < original.num_event_types(); ++k) {
      EXPECT_EQ(video.ObjectCount(k, t), original.ObjectCount(k, t));
    }
  }
  EXPECT_EQ(video.action_units().size(), original.action_units().size());
  std::remove(path.c_str());
}

TEST(VideoIoTest, MissingFileNotFound) {
  EXPECT_EQ(LoadVideo(TempPath("nope.evvs")).status().code(),
            StatusCode::kNotFound);
}

TEST(VideoIoTest, CorruptFileRejected) {
  const std::string path = TempPath("corrupt.evvs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a video stream";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_EQ(LoadVideo(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(VideoIoTest, HostileFilesRejected) {
  // A 10-frame stream "v" with one event "e" over [2, 3] and [4, 8].
  DatasetSpec spec;
  spec.name = "v";
  spec.num_frames = 10;
  spec.num_distractor_channels = 0;
  spec.num_noise_channels = 0;
  spec.events.emplace_back();
  spec.events[0].name = "e";
  const size_t d = spec.FeatureDim();
  EventTimeline timeline =
      EventTimeline::FromIntervals({{Interval{2, 3}, Interval{4, 8}}}, 10);
  const SyntheticVideo video = SyntheticVideo::FromParts(
      spec, std::move(timeline), std::vector<float>(10 * d, 0.5f),
      {std::vector<float>(10, 1.0f)}, 10);
  const std::string path = TempPath("hostile.evvs");
  ASSERT_TRUE(SaveVideo(video, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  // Field offsets in SaveVideo's layout: magic, version, the name "v",
  // then num_frames, M, H, distractors, noise, shift frame, the event
  // count, event "e" (name and four doubles), and its timeline.
  constexpr size_t kNumFrames = 4 + 4 + (4 + 1);
  constexpr size_t kWindow = kNumFrames + 8;
  constexpr size_t kHorizon = kWindow + 4;
  constexpr size_t kDistractors = kHorizon + 4;
  constexpr size_t kNoise = kDistractors + 4;
  constexpr size_t kShift = kNoise + 4;
  constexpr size_t kTimeline = kShift + 8 + 4 + (4 + 1) + 4 * 8;
  constexpr size_t kFirstEnd = kTimeline + 8 + 8;
  constexpr size_t kSecondEnd = kFirstEnd + 8 + 8;
  struct Patch {
    const char* what;
    size_t offset;
    size_t width;
    int64_t saved;
    int64_t value;
  };
  const Patch patches[] = {
      {"collection window below one", kWindow, 4, 25, -5},
      {"horizon below one", kHorizon, 4, 500, 0},
      {"negative distractor count", kDistractors, 4, 0, -3},
      {"negative noise count", kNoise, 4, 0, -1},
      {"more frames than the file holds", kNumFrames, 8, 10, int64_t{1} << 40},
      {"interval past the last frame", kSecondEnd, 8, 8, 50},
      {"empty interval", kFirstEnd, 8, 3, 1},
      {"overlapping intervals", kFirstEnd, 8, 3, 6},
      {"shift frame before the stream", kShift, 8, 10, -1},
      {"shift frame past the stream", kShift, 8, 10, 11},
  };
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.what);
    int64_t saved = 0;
    std::memcpy(&saved, bytes.data() + patch.offset, patch.width);
    if (patch.width == 4) saved = static_cast<int32_t>(saved);
    ASSERT_EQ(saved, patch.saved);  // The offset names the field.
    std::string hostile = bytes;
    std::memcpy(hostile.data() + patch.offset, &patch.value, patch.width);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << hostile;
    }
    EXPECT_EQ(LoadVideo(path).status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(VideoIoTest, TruncatedFileRejected) {
  const SyntheticVideo original = SmallVideo(63);
  const std::string path = TempPath("truncated.evvs");
  ASSERT_TRUE(SaveVideo(original, path).ok());
  // Truncate to the first kilobyte.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[1024];
  const size_t read = std::fread(buffer, 1, sizeof(buffer), f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(buffer, 1, read, f);
  std::fclose(f);
  EXPECT_FALSE(LoadVideo(path).ok());
  std::remove(path.c_str());
}

TEST(VideoIoTest, ShiftedStreamRoundTrips) {
  DatasetSpec before = MakeDatasetSpec(DatasetId::kThumos);
  before.num_frames = 8000;
  DatasetSpec after = before;
  after.num_frames = 6000;
  const SyntheticVideo original =
      SyntheticVideo::GenerateWithShift(before, after, 65);
  const std::string path = TempPath("shifted.evvs");
  ASSERT_TRUE(SaveVideo(original, path).ok());
  auto loaded = LoadVideo(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().shift_frame(), 8000);
  EXPECT_EQ(loaded.value().num_frames(), 14000);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eventhit::sim
