// Bucket-by-bucket oracle for the scan protocol (flat broadcast and the
// scheduled scan family, broadcast disks included): tune in, then listen
// to every bucket from the next boundary until the key's record arrives,
// or for one full cycle when it never does. O(buckets) per call; tests
// pin each closed-form scan walk against it.
#ifndef AIRINDEX_TESTS_SCAN_ORACLE_H_
#define AIRINDEX_TESTS_SCAN_ORACLE_H_

#include <cstddef>
#include <string_view>

#include "data/dataset.h"
#include "inflated_channel.h"
#include "schemes/access.h"

namespace airindex {

inline AccessResult ScanOracle(const InflatedChannel& channel,
                               const Dataset& dataset, std::string_view key,
                               Bytes tune_in) {
  AccessResult result;
  Bytes t = channel.NextBoundaryTime(tune_in);
  result.tuning_time = t - tune_in;
  const std::size_t num = channel.num_buckets();
  std::size_t i = channel.BucketAtPhase(t % channel.cycle_bytes());
  for (std::size_t scanned = 0; scanned < num; ++scanned) {
    const Bucket& bucket = channel.bucket(i);
    t += bucket.size;
    result.tuning_time += bucket.size;
    ++result.probes;
    if (dataset.record(static_cast<int>(bucket.record_id)).key == key) {
      result.found = true;
      break;
    }
    i = (i + 1) % num;
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace airindex

#endif  // AIRINDEX_TESTS_SCAN_ORACLE_H_
