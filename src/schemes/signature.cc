#include "schemes/signature.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "des/random.h"

namespace airindex {

namespace {

std::uint64_t HashField(std::string_view s) {
  std::uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

SignatureGenerator::SignatureGenerator(Bytes signature_bytes,
                                       SignatureParams params)
    : signature_bytes_(signature_bytes),
      words_(static_cast<int>((signature_bytes * 8 + 63) / 64)),
      bits_(static_cast<int>(signature_bytes * 8)),
      mask_(bits_ > 0 && std::has_single_bit(static_cast<unsigned>(bits_))
                ? static_cast<std::uint64_t>(bits_) - 1
                : 0),
      params_(params) {}

SignatureGenerator::SignatureGenerator(const BucketGeometry& geometry,
                                       SignatureParams params)
    : SignatureGenerator(geometry.signature_bytes, params) {}

Bytes ResolveGroupSignatureBytes(const BucketGeometry& geometry,
                                 const SignatureParams& params,
                                 int group_size) {
  if (params.group_signature_bytes > 0) return params.group_signature_bytes;
  return geometry.signature_bytes *
         std::max<Bytes>(1, static_cast<Bytes>(group_size) / 4);
}

template <bool kMask>
void SignatureGenerator::SuperimposeFields(std::uint64_t* h, int lanes,
                                           std::uint64_t* sig) const {
  const auto bits = static_cast<std::uint64_t>(bits_);
  for (int j = 0; j < params_.bits_per_attribute; ++j) {
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t bit = kMask ? h[l] & mask_ : h[l] % bits;
      sig[bit / 64] |= 1ULL << (bit % 64);
      h[l] = Mix64(h[l] + static_cast<std::uint64_t>(j) + 1);
    }
  }
}

void SignatureGenerator::SuperimposeRecord(const RecordView& record,
                                           std::uint64_t* sig) const {
  // Fields per interleaved pass: a default record's key and 8 attributes
  // take one.
  constexpr int kLanes = 16;
  std::uint64_t h[kLanes];
  int lanes = 0;
  const auto superimpose = [&] {
    if (mask_ != 0) {
      SuperimposeFields<true>(h, lanes, sig);
    } else {
      SuperimposeFields<false>(h, lanes, sig);
    }
    lanes = 0;
  };
  h[lanes++] = HashField(record.key);
  for (const std::string_view attribute : record.attributes) {
    if (lanes == kLanes) superimpose();
    h[lanes++] = HashField(attribute);
  }
  superimpose();
}

QueryBits SignatureGenerator::Query(std::string_view value) const {
  QueryBits query;
  std::uint64_t h = HashField(value);
  for (int j = 0; j < params_.bits_per_attribute; ++j) {
    const int bit = static_cast<int>(
        mask_ != 0 ? h & mask_ : h % static_cast<std::uint64_t>(bits_));
    if (std::find(query.begin(), query.end(), bit) == query.end()) {
      query.push_back(bit);
    }
    h = Mix64(h + static_cast<std::uint64_t>(j) + 1);
  }
  return query;
}

std::vector<std::uint64_t> SignatureGenerator::RecordSignature(
    const RecordView& record) const {
  std::vector<std::uint64_t> sig(static_cast<std::size_t>(words_), 0);
  SuperimposeRecord(record, sig.data());
  return sig;
}

std::vector<std::uint64_t> SignatureGenerator::QuerySignature(
    std::string_view key) const {
  std::vector<std::uint64_t> sig(static_cast<std::size_t>(words_), 0);
  for (const int bit : Query(key)) {
    sig[static_cast<std::size_t>(bit / 64)] |= 1ULL << (bit % 64);
  }
  return sig;
}

bool SignatureGenerator::Matches(const std::uint64_t* record_sig,
                                 const std::uint64_t* query_sig, int words) {
  for (int w = 0; w < words; ++w) {
    if ((record_sig[w] & query_sig[w]) != query_sig[w]) return false;
  }
  return true;
}

Result<SignatureIndexing> SignatureIndexing::Build(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params) {
  if (dataset == nullptr || dataset->size() == 0) {
    return Status::InvalidArgument(
        "signature indexing needs a non-empty dataset");
  }
  if (geometry.signature_bytes <= 0) {
    return Status::InvalidArgument("signature_bytes must be positive");
  }
  if (params.bits_per_attribute <= 0 ||
      params.bits_per_attribute > geometry.signature_bytes * 8) {
    return Status::InvalidArgument("bits_per_attribute out of range");
  }

  SignatureGenerator generator(geometry, params);
  const int words = generator.words();
  const auto num_records = static_cast<std::uint64_t>(dataset->size());
  ArenaWriter writer(*dataset);
  writer.Reserve({.buckets = 2 * num_records,
                  .words = num_records * static_cast<std::uint64_t>(words)});
  for (int r = 0; r < dataset->size(); ++r) {
    writer.Append(BucketKind::kSignature, geometry.signature_bucket_bytes())
        .record_id = r;
    generator.SuperimposeRecord(dataset->record(r), writer.AddWords(words));
    writer.Append(BucketKind::kData, geometry.data_bucket_bytes()).record_id =
        r;
  }

  Result<ArenaChannelView> view = ArenaChannelView::Bind(std::move(writer));
  if (!view.ok()) return view.status();
  return SignatureIndexing(std::move(dataset), generator,
                           std::move(view).value());
}

namespace {

// Words per slice: one bit per record.
std::size_t SliceWords(int num_records) {
  return (static_cast<std::size_t>(num_records) + 63) / 64;
}

// Transposes the row-major record signature table `rows` (record r's
// `words` words at row r) into `bits` slices of SliceWords(num_records)
// words each: slice b has bit r set when record r's signature has bit b.
std::vector<std::uint64_t> SliceTable(const std::uint64_t* rows,
                                      int num_records, int words, int bits) {
  const std::size_t stride = SliceWords(num_records);
  std::vector<std::uint64_t> slices(static_cast<std::size_t>(bits) * stride);
  const std::uint64_t* row = rows;
  for (int r = 0; r < num_records; ++r, row += words) {
    const std::size_t column = static_cast<std::size_t>(r) / 64;
    const std::uint64_t mask = 1ULL << (r % 64);
    for (int w = 0; w < words; ++w) {
      for (std::uint64_t x = row[w]; x != 0; x &= x - 1) {
        const int b = w * 64 + std::countr_zero(x);
        if (b >= bits) break;  // unused high bits of the last word
        slices[static_cast<std::size_t>(b) * stride + column] |= mask;
      }
    }
  }
  return slices;
}

// The slices a query selects, one per set query bit. A record matches
// when every selected slice has its bit, so a query with no set bit
// matches every record, as SignatureGenerator::Covers does.
using SliceSet = InlineList<const std::uint64_t*, QueryBits::kInline>;

SliceSet SelectSlices(const std::vector<std::uint64_t>& slices,
                      int num_records, const QueryBits& query) {
  const std::size_t stride = SliceWords(num_records);
  SliceSet selected;
  for (const int bit : query) {
    selected.push_back(slices.data() + static_cast<std::size_t>(bit) * stride);
  }
  return selected;
}

// Slice words ANDed per block: 1,024 records.
constexpr std::size_t kBlockWords = 16;

// The one counting core: calls visit(word_index, word) for every slice
// word overlapping record positions [lo, hi), where `word` is the AND of
// the selected slices' words, masked to [lo, hi). It works a block of
// words at a time: the block starts as all ones and the selected slices
// are ANDed into it as runs of contiguous words, two slices a pass, which
// halves the block's loads and stores against one slice a pass.
template <typename Visit>
void ForEachMatchWord(const SliceSet& selected, int lo, int hi,
                      Visit&& visit) {
  if (lo >= hi) return;
  const std::size_t first = static_cast<std::size_t>(lo) / 64;
  const std::size_t end = static_cast<std::size_t>(hi - 1) / 64 + 1;
  std::uint64_t block[kBlockWords];
  for (std::size_t base = first; base < end; base += kBlockWords) {
    const std::size_t words = std::min(kBlockWords, end - base);
    std::fill(block, block + words, ~0ULL);
    std::size_t s = 0;
    for (; s + 1 < selected.size(); s += 2) {
      const std::uint64_t* a = selected[s] + base;
      const std::uint64_t* b = selected[s + 1] + base;
      for (std::size_t j = 0; j < words; ++j) block[j] &= a[j] & b[j];
    }
    if (s < selected.size()) {
      const std::uint64_t* a = selected[s] + base;
      for (std::size_t j = 0; j < words; ++j) block[j] &= a[j];
    }
    if (base == first) block[0] &= ~0ULL << (lo % 64);
    if (base + words == end) {
      block[words - 1] &= ~0ULL >> (63 - (hi - 1) % 64);
    }
    for (std::size_t j = 0; j < words; ++j) visit(base + j, block[j]);
  }
}

// Matches among `count` records starting at key-order position `first`
// (circular, count <= num_records). Most ANDed words are zero at useful
// signature widths, so only the others are popcounted.
int CountMatches(const SliceSet& selected, int num_records, int first,
                 int count) {
  int matches = 0;
  const auto add = [&matches](std::size_t, std::uint64_t word) {
    if (word != 0) matches += std::popcount(word);
  };
  const int end = first + count;
  ForEachMatchWord(selected, first, std::min(end, num_records), add);
  if (end > num_records) ForEachMatchWord(selected, 0, end - num_records, add);
  return matches;
}

// Closed-form signature sift: the bound arena gives the bucket sizes and
// the cycle, the slices the match counts.
AccessResult SignatureWalk(const ArenaChannelView& view,
                           const std::vector<std::uint64_t>& slices,
                           std::string_view key, Bytes tune_in,
                           const Dataset& dataset,
                           const SignatureGenerator& generator) {
  const Bytes it = view.bucket(0).size();   // signature bucket
  const Bytes dt = view.bucket(1).size();   // data bucket
  const Bytes period = it + dt;
  const int pairs = dataset.size();
  const Bytes cycle = view.cycle_bytes();

  AccessResult result;
  // Listen until the next complete signature bucket.
  const Bytes phase = tune_in % cycle;
  const Bytes pair_index = phase / period;
  const Bytes in_pair = phase % period;
  Bytes wait = 0;
  int start = static_cast<int>(pair_index);
  if (in_pair != 0) {
    wait = period - in_pair;
    start = static_cast<int>((pair_index + 1) % pairs);
  }
  result.access_time = wait;
  result.tuning_time = wait;

  const SliceSet query = SelectSlices(slices, pairs, generator.Query(key));
  const int target = dataset.FindIndex(key);
  if (target >= 0) {
    const int scanned = (target - start + pairs) % pairs + 1;
    const int matches = CountMatches(query, pairs, start, scanned);
    result.false_drops = matches - 1;  // the target always matches
    result.probes = scanned + matches;
    result.index_probes = scanned;
    result.tuning_time += static_cast<Bytes>(scanned) * it +
                          static_cast<Bytes>(matches) * dt;
    result.access_time += static_cast<Bytes>(scanned) * period;
    result.found = true;
    return result;
  }

  // Not on air: the client concludes only after one full cycle of
  // signatures; every match it downloaded was a false drop.
  const int matches = CountMatches(query, pairs, 0, pairs);
  result.false_drops = matches;
  result.probes = pairs + matches;
  result.index_probes = pairs;
  result.tuning_time +=
      static_cast<Bytes>(pairs) * it + static_cast<Bytes>(matches) * dt;
  const int last = (start + pairs - 1) % pairs;
  const bool last_matched = CountMatches(query, pairs, last, 1) == 1;
  result.access_time += static_cast<Bytes>(pairs - 1) * period + it +
                        (last_matched ? dt : 0);
  return result;
}

}  // namespace

SignatureIndexing::SignatureIndexing(std::shared_ptr<const Dataset> dataset,
                                     SignatureGenerator generator,
                                     ArenaChannelView view)
    : dataset_(std::move(dataset)),
      generator_(generator),
      view_(std::move(view)),
      slices_(SliceTable(view_.word_pool(), dataset_->size(),
                         generator_.words(),
                         static_cast<int>(generator_.signature_bytes() * 8))) {}

AccessResult SignatureIndexing::Access(std::string_view key,
                                       Bytes tune_in) const {
  return SignatureWalk(view_, slices_, key, tune_in, *dataset_, generator_);
}

FilterResult SignatureIndexing::Filter(std::string_view value,
                                       Bytes tune_in) const {
  const Bytes it = view_.bucket(0).size();
  const Bytes dt = view_.bucket(1).size();
  const Bytes period = it + dt;
  const int pairs = dataset_->size();
  const Bytes cycle = view_.cycle_bytes();

  FilterResult result;
  // Listen until the next complete signature bucket (as in Access).
  const Bytes phase = tune_in % cycle;
  const Bytes pair_index = phase / period;
  const Bytes in_pair = phase % period;
  Bytes wait = 0;
  int start = static_cast<int>(pair_index);
  if (in_pair != 0) {
    wait = period - in_pair;
    start = static_cast<int>((pair_index + 1) % pairs);
  }
  result.access_time = wait;
  result.tuning_time = wait + static_cast<Bytes>(pairs) * it;
  result.probes = pairs;

  // One pass sifts every signature once, so the downloads are the matches
  // of the whole table, visited in key order.
  const SliceSet query = SelectSlices(slices_, pairs, generator_.Query(value));
  ForEachMatchWord(query, 0, pairs, [&](std::size_t w, std::uint64_t word) {
    for (; word != 0; word &= word - 1) {
      const int position =
          static_cast<int>(w * 64) + std::countr_zero(word);
      result.tuning_time += dt;
      ++result.probes;
      const AttributeRange attributes = dataset_->record(position).attributes;
      const bool carries =
          std::find(attributes.begin(), attributes.end(), value) !=
          attributes.end();
      if (carries) {
        result.matches.push_back(position);
      } else {
        ++result.false_drops;
      }
    }
  });
  // The pass ends after the last pair's signature (plus its download when
  // the signature matched).
  const int last = (start + pairs - 1) % pairs;
  const bool last_pair_downloaded = CountMatches(query, pairs, last, 1) == 1;
  result.access_time += static_cast<Bytes>(pairs - 1) * period + it +
                        (last_pair_downloaded ? dt : 0);
  return result;
}

double SignatureIndexing::MeasureFalseDropRate(int sample_queries,
                                               std::uint64_t seed) const {
  const int num = dataset_->size();
  if (num < 2 || sample_queries <= 0) return 0.0;
  Rng rng(seed);
  std::int64_t pairs_checked = 0;
  std::int64_t drops = 0;
  for (int q = 0; q < sample_queries; ++q) {
    const int target =
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(num)));
    const SliceSet query = SelectSlices(
        slices_, num, generator_.Query(dataset_->record(target).key));
    drops += CountMatches(query, num, 0, num) - 1;
    pairs_checked += num - 1;
  }
  return static_cast<double>(drops) / static_cast<double>(pairs_checked);
}

Result<SignatureIndexing> SignatureIndexing::Restore(
    std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
    SignatureParams params, ArenaChannelView view) {
  SignatureGenerator generator(geometry, params);
  const int words = generator.words();
  const int num_records = dataset->size();
  if (view.num_buckets() != 2 * static_cast<std::size_t>(num_records)) {
    return Status::InvalidArgument(
        "signature restore: channel has " +
        std::to_string(view.num_buckets()) + " buckets for " +
        std::to_string(num_records) + " records");
  }
  // The bit slices are derived from record k's signature as row k of the
  // word pool, and the closed-form walk and Filter assume one (It, Dt)
  // pair per record: accept only the alternating cycle Build lays out.
  const Bytes it = view.bucket(0).size();
  const Bytes dt = view.bucket(1).size();
  for (int k = 0; k < num_records; ++k) {
    const auto sig = view.bucket(2 * static_cast<std::size_t>(k));
    const auto data = view.bucket(2 * static_cast<std::size_t>(k) + 1);
    if (sig.kind() != BucketKind::kSignature || sig.record_id() != k ||
        sig.size() != it || sig.signature_word_count() != words ||
        sig.signature_words() !=
            view.word_pool() + static_cast<std::size_t>(k) *
                                   static_cast<std::size_t>(words) ||
        data.kind() != BucketKind::kData || data.record_id() != k ||
        data.size() != dt) {
      return Status::InvalidArgument(
          "signature restore: pair " + std::to_string(k) +
          " is not (signature, data) of record " + std::to_string(k));
    }
  }
  return SignatureIndexing(std::move(dataset), generator, std::move(view));
}

}  // namespace airindex
