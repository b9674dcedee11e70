#include "schemes/multilevel_signature.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace airindex {

Result<MultiLevelSignatureIndexing> MultiLevelSignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, int group_size) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "multi-level signature indexing needs a non-empty dataset");
  }
  if (group_size < 1) {
    return Status::InvalidArgument("group_size must be at least 1");
  }
  if (geometry.signature_bytes <= 0 || params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bad signature configuration");
  }

  SignatureGenerator record_generator(geometry, params);
  const Bytes group_sig_bytes =
      ResolveGroupSignatureBytes(geometry, params, group_size);
  SignatureGenerator group_generator(group_sig_bytes, params);
  const int group_words = group_generator.words();
  const int num_records = dataset->size();

  const int record_words = record_generator.words();
  const auto num_groups =
      static_cast<std::uint64_t>((num_records + group_size - 1) / group_size);
  const auto records = static_cast<std::uint64_t>(num_records);
  ArenaWriter writer(*dataset);
  writer.Reserve(
      {.buckets = num_groups + 2 * records,
       .words = num_groups * static_cast<std::uint64_t>(group_words) +
                records * static_cast<std::uint64_t>(record_words)});
  for (int first = 0; first < num_records; first += group_size) {
    const int last = std::min(first + group_size, num_records) - 1;

    ArenaBucket& group_bucket =
        writer.Append(BucketKind::kSignature, group_sig_bytes);
    group_bucket.level = kGroupSignatureLevel;
    group_bucket.record_id = first;
    std::uint64_t* group = writer.AddWords(group_words);
    for (int rec = first; rec <= last; ++rec) {
      group_generator.SuperimposeRecord(dataset->record(rec), group);
    }

    for (int rec = first; rec <= last; ++rec) {
      ArenaBucket& record_sig = writer.Append(
          BucketKind::kSignature, geometry.signature_bucket_bytes());
      record_sig.level = kRecordSignatureLevel;
      record_sig.record_id = rec;
      record_generator.SuperimposeRecord(dataset->record(rec),
                                         writer.AddWords(record_words));
      writer.Append(BucketKind::kData, geometry.data_bucket_bytes())
          .record_id = rec;
    }
  }

  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return MultiLevelSignatureIndexing(std::move(dataset), record_generator,
                                     group_generator, std::move(view).value(),
                                     group_size);
}

namespace {

// The two-level signature sift over the bound arena
// (schemes/channel_view.h).
AccessResult MultiLevelWalk(const ArenaChannelView& view, std::string_view key,
                            Bytes tune_in, const Dataset& dataset,
                            const SignatureGenerator& record_generator,
                            const SignatureGenerator& group_generator,
                            int group_size) {
  AccessResult result;
  const Bytes cycle = view.cycle_bytes();
  const std::size_t num = view.num_buckets();
  const QueryBits group_query = group_generator.Query(key);
  const QueryBits record_query = record_generator.Query(key);

  const auto is_group = [&](std::size_t i) {
    const auto b = view.bucket(i);
    return b.kind() == BucketKind::kSignature &&
           b.level() == MultiLevelSignatureIndexing::kGroupSignatureLevel;
  };

  // Listen until the next complete group-signature bucket.
  Bytes t = tune_in;
  std::size_t i = view.BucketAtPhase(t % cycle);
  if (view.start_phase(i) != t % cycle || !is_group(i)) {
    do {
      i = (i + 1) % num;
    } while (!is_group(i));
    t = view.NextArrivalOfPhase(view.start_phase(i), t);
  }
  result.tuning_time = t - tune_in;

  const int num_groups = (dataset.size() + group_size - 1) / group_size;
  for (int scanned = 0; scanned < num_groups; ++scanned) {
    const auto group_bucket = view.bucket(i);
    t += group_bucket.size();
    result.tuning_time += group_bucket.size();
    ++result.probes;
    ++result.index_probes;
    const bool group_match =
        SignatureGenerator::Covers(group_bucket.signature_words(), group_query);

    // Locate the next group start (one past this group's members).
    std::size_t next_group = i + 1;
    while (next_group < num && !is_group(next_group)) ++next_group;

    if (group_match) {
      // Sift the record signatures inside the group.
      for (std::size_t s = i + 1; s < next_group && !result.found; s += 2) {
        const auto record_sig = view.bucket(s);
        t = view.NextArrivalOfPhase(view.start_phase(s), t);
        t += record_sig.size();
        result.tuning_time += record_sig.size();
        ++result.probes;
        ++result.index_probes;
        if (!SignatureGenerator::Covers(record_sig.signature_words(),
                                        record_query)) {
          continue;  // doze over the data bucket
        }
        const auto data_bucket = view.bucket(s + 1);
        t += data_bucket.size();
        result.tuning_time += data_bucket.size();
        ++result.probes;
        const Record& record =
            dataset.record(static_cast<int>(data_bucket.record_id()));
        if (record.key == key) {
          result.found = true;
        } else {
          ++result.false_drops;
        }
      }
      if (result.found) break;
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

AccessResult MultiLevelSignatureIndexing::Access(std::string_view key,
                                                 Bytes tune_in) const {
  return MultiLevelWalk(view_, key, tune_in, *dataset_, record_generator_,
                        group_generator_, group_size_);
}

Result<MultiLevelSignatureIndexing> MultiLevelSignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, ArenaChannelView view, int group_size) {
  if (group_size < 1) {
    return Status::InvalidArgument(
        "multi-level signature restore: group_size must be >= 1");
  }
  SignatureGenerator record_generator(geometry, params);
  SignatureGenerator group_generator(
      ResolveGroupSignatureBytes(geometry, params, group_size), params);
  // The walk sifts from a group signature (bucket 0 after a wrap) and
  // reads the buckets up to the next one as (record signature, data)
  // pairs: accept only that layout, each signature as wide as its
  // generator; RestoreSchemeFromArena checks the data buckets' record ids.
  const std::size_t num = view.num_buckets();
  const auto is_signature = [&view](std::size_t i, int level, int words) {
    const auto bucket = view.bucket(i);
    return bucket.kind() == BucketKind::kSignature &&
           bucket.level() == level && bucket.signature_word_count() == words;
  };
  for (std::size_t group = 0; group < num;) {
    bool ok =
        is_signature(group, kGroupSignatureLevel, group_generator.words());
    std::size_t i = group + 1;
    while (ok && i < num && view.bucket(i).level() != kGroupSignatureLevel) {
      ok = is_signature(i, kRecordSignatureLevel, record_generator.words()) &&
           i + 1 < num && view.bucket(i + 1).kind() == BucketKind::kData;
      i += 2;
    }
    if (!ok) {
      return Status::InvalidArgument(
          "multi-level signature restore: the group at bucket " +
          std::to_string(group) +
          " is not a group signature and (record signature, data) pairs");
    }
    group = i;
  }
  return MultiLevelSignatureIndexing(std::move(dataset), record_generator,
                                     group_generator, std::move(view),
                                     group_size);
}

}  // namespace airindex
