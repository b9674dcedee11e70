// Bucket-by-bucket oracle for simple signature indexing: tune in, listen
// until the next complete signature bucket, then sift the cycle's
// signatures one row at a time over the scheme's arena view, downloading
// the data bucket after every match, until the key's record arrives or
// one full cycle of signatures has been sifted. O(records) per call;
// tests pin the closed-form signature walk against it.
#ifndef AIRINDEX_TESTS_SIGNATURE_ORACLE_H_
#define AIRINDEX_TESTS_SIGNATURE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/signature.h"

namespace airindex {

inline AccessResult SignatureOracle(const SignatureIndexing& scheme,
                                    const Dataset& dataset,
                                    std::string_view key, Bytes tune_in) {
  const ArenaChannelView& view = scheme.view();
  AccessResult result;
  const Bytes cycle = view.cycle_bytes();
  const std::vector<std::uint64_t> query =
      scheme.generator().QuerySignature(key);
  const int words = scheme.generator().words();

  // Advance to the next complete signature bucket, listening.
  Bytes t = tune_in;
  {
    const Bytes phase = t % cycle;
    std::size_t i = view.BucketAtPhase(phase);
    if (view.start_phase(i) != phase ||
        view.bucket(i).kind() != BucketKind::kSignature) {
      // Move to the next signature bucket start.
      do {
        i = (i + 1) % view.num_buckets();
      } while (view.bucket(i).kind() != BucketKind::kSignature);
      t = view.NextArrivalOfPhase(view.start_phase(i), t);
    }
  }
  result.tuning_time = t - tune_in;

  const int pairs = dataset.size();
  for (int scanned = 0; scanned < pairs; ++scanned) {
    const std::size_t i = view.BucketAtPhase(t % cycle);
    const auto sig_bucket = view.bucket(i);
    t += sig_bucket.size();
    result.tuning_time += sig_bucket.size();
    ++result.probes;
    ++result.index_probes;
    const bool match = SignatureGenerator::Matches(
        sig_bucket.signature_words(), query.data(), words);
    if (match) {
      // Download the data bucket that follows.
      const auto data_bucket = view.bucket((i + 1) % view.num_buckets());
      t += data_bucket.size();
      result.tuning_time += data_bucket.size();
      ++result.probes;
      const Record& record =
          dataset.record(static_cast<int>(data_bucket.record_id()));
      if (record.key == key) {
        result.found = true;
        break;
      }
      ++result.false_drops;
    }
    if (scanned + 1 == pairs) break;  // whole cycle sifted: not on air
    // Doze until the next signature bucket.
    const Bytes next_sig_phase =
        view.start_phase((i + 2) % view.num_buckets());
    t = view.NextArrivalOfPhase(next_sig_phase, t);
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace airindex

#endif  // AIRINDEX_TESTS_SIGNATURE_ORACLE_H_
