// Statistics helper used by the experiment harness.
//
// The paper (§5.3) reports "the average of at least 10 runs with the smallest
// and largest readings across runs removed"; trimmed_mean implements exactly
// that convention.
#pragma once

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace sbs {

/// Mean of the samples after dropping the single smallest and single largest
/// value (when there are at least three samples; otherwise the plain mean).
inline double trimmed_mean(std::vector<double> samples) {
  SBS_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  std::size_t lo = 0, hi = samples.size();
  if (samples.size() >= 3) {
    ++lo;
    --hi;
  }
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

}  // namespace sbs
