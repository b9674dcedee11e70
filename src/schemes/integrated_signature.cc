#include "schemes/integrated_signature.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace airindex {

Result<IntegratedSignatureIndexing> IntegratedSignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "integrated signature indexing needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument("group_size must be at least 1");
  }
  if (geometry.signature_bytes <= 0 || params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bad signature configuration");
  }

  // Group signatures live in a wider bit space than record signatures so
  // superimposing a whole group does not saturate them.
  const Bytes group_sig_bytes =
      ResolveGroupSignatureBytes(geometry, params, group_size);
  SignatureGenerator generator(group_sig_bytes, params);
  const int words = generator.words();
  const int num_records = dataset->size();

  const int num_groups = (num_records + group_size - 1) / group_size;
  ArenaWriter writer(*dataset);
  writer.Reserve(
      {.buckets = static_cast<std::uint64_t>(num_records + num_groups),
       .words = static_cast<std::uint64_t>(num_groups) *
                static_cast<std::uint64_t>(words)});
  for (int first = 0; first < num_records; first += group_size) {
    const int last = std::min(first + group_size, num_records) - 1;
    writer.Append(BucketKind::kSignature, group_sig_bytes).record_id = first;
    std::uint64_t* group = writer.AddWords(words);
    for (int rec = first; rec <= last; ++rec) {
      generator.SuperimposeRecord(dataset->record(rec), group);
    }
    for (int rec = first; rec <= last; ++rec) {
      writer.Append(BucketKind::kData, geometry.data_bucket_bytes())
          .record_id = rec;
    }
  }

  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return IntegratedSignatureIndexing(std::move(dataset), generator,
                                     std::move(view).value(), group_size);
}

namespace {

// The integrated-signature sift over the bound arena
// (schemes/channel_view.h).
AccessResult IntegratedWalk(const ArenaChannelView& view, std::string_view key,
                            Bytes tune_in, const Dataset& dataset,
                            const SignatureGenerator& generator,
                            int group_size) {
  AccessResult result;
  const Bytes cycle = view.cycle_bytes();
  const std::size_t num = view.num_buckets();
  const QueryBits query = generator.Query(key);

  // Listen until the next complete *group signature* bucket.
  Bytes t = tune_in;
  std::size_t i = view.BucketAtPhase(t % cycle);
  if (view.start_phase(i) != t % cycle ||
      view.bucket(i).kind() != BucketKind::kSignature) {
    do {
      i = (i + 1) % num;
    } while (view.bucket(i).kind() != BucketKind::kSignature);
    t = view.NextArrivalOfPhase(view.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;

  const int num_groups = (dataset.size() + group_size - 1) / group_size;
  for (int scanned = 0; scanned < num_groups; ++scanned) {
    const auto sig_bucket = view.bucket(i);
    t += sig_bucket.size();
    result.tuning_time += sig_bucket.size();
    ++result.probes;
    ++result.index_probes;
    const bool match =
        SignatureGenerator::Covers(sig_bucket.signature_words(), query);
    // Index of the next group-signature bucket.
    std::size_t next_group = i + 1;
    while (next_group < num &&
           view.bucket(next_group).kind() != BucketKind::kSignature) {
      ++next_group;
    }
    const std::size_t group_end = next_group;  // one past last data bucket
    if (match) {
      bool hit_in_group = false;
      for (std::size_t d = i + 1; d < group_end; ++d) {
        const auto data_bucket = view.bucket(d);
        t += data_bucket.size();
        result.tuning_time += data_bucket.size();
        ++result.probes;
        const Record& record =
            dataset.record(static_cast<int>(data_bucket.record_id()));
        if (record.key == key) {
          result.found = true;
          hit_in_group = true;
          break;
        }
      }
      if (result.found) break;
      if (!hit_in_group) ++result.false_drops;
    }
    if (scanned + 1 == num_groups) break;  // cycle sifted: not on air
    const Bytes next_phase =
        next_group < num ? view.start_phase(next_group) : 0;
    t = view.NextArrivalOfPhase(next_phase, t);
    i = view.BucketAtPhase(next_phase);
  }
  result.access_time = t - tune_in;
  return result;
}

}  // namespace

AccessResult IntegratedSignatureIndexing::Access(std::string_view key,
                                                 Bytes tune_in) const {
  return IntegratedWalk(view_, key, tune_in, *dataset_, generator_,
                        group_size_);
}

Result<IntegratedSignatureIndexing> IntegratedSignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, ArenaChannelView view, int group_size) {
  if (group_size < 1) {
    return Status::InvalidArgument(
        "integrated signature restore: group_size must be >= 1");
  }
  SignatureGenerator generator(
      ResolveGroupSignatureBytes(geometry, params, group_size), params);
  // The walk sifts from a signature bucket (bucket 0 after a wrap),
  // matches `words` words of each and reads every other bucket as a
  // record: accept signature buckets of that width and data buckets,
  // whose record ids RestoreSchemeFromArena checks.
  if (view.num_index_buckets() != 0 ||
      view.bucket(0).kind() != BucketKind::kSignature) {
    return Status::InvalidArgument(
        "integrated signature restore: the cycle must open with a "
        "signature bucket and hold only signature and data buckets");
  }
  for (std::size_t i = 0; i < view.num_buckets(); ++i) {
    const auto bucket = view.bucket(i);
    if (bucket.kind() == BucketKind::kSignature &&
        bucket.signature_word_count() != generator.words()) {
      return Status::InvalidArgument(
          "integrated signature restore: signature bucket " +
          std::to_string(i) + " is not " + std::to_string(generator.words()) +
          " words wide");
    }
  }
  return IntegratedSignatureIndexing(std::move(dataset), generator,
                                     std::move(view), group_size);
}

}  // namespace airindex
