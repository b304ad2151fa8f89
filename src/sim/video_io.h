// Binary persistence of generated streams, so expensive dataset generation
// can be done once and shared across experiment runs (and so external
// feature streams in the same layout can be imported).
//
// Format (little-endian): magic "EVVS", version, the DatasetSpec fields
// needed to reconstruct accessors (frame count, event names and channel
// layout), the ground-truth timeline, features, and detector counts.
#ifndef EVENTHIT_SIM_VIDEO_IO_H_
#define EVENTHIT_SIM_VIDEO_IO_H_

#include <string>

#include "common/status.h"
#include "sim/synthetic_video.h"

namespace eventhit::sim {

/// Writes `video` to `path` (overwrites).
Status SaveVideo(const SyntheticVideo& video, const std::string& path);

/// Loads a stream previously written by SaveVideo. A file that is
/// truncated or inconsistent (a negative channel count, more frames than
/// the file holds, an empty, out-of-range or overlapping interval, a shift
/// frame outside (0, num_frames]) yields InvalidArgument, never an abort.
Result<SyntheticVideo> LoadVideo(const std::string& path);

}  // namespace eventhit::sim

#endif  // EVENTHIT_SIM_VIDEO_IO_H_
