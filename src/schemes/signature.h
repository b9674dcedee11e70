#ifndef AIRINDEX_SCHEMES_SIGNATURE_H_
#define AIRINDEX_SCHEMES_SIGNATURE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "broadcast/geometry.h"
#include "data/dataset.h"
#include "schemes/access.h"
#include "schemes/channel_view.h"
#include "schemes/filter.h"

namespace airindex {

/// Parameters of the superimposed-coding signature generator.
struct SignatureParams {
  /// Bits set per attribute value (the classic "weight" parameter).
  int bits_per_attribute = 8;
  /// Width of *group* signatures (integrated / multi-level schemes), in
  /// bytes. A group signature superimposes every member record's fields,
  /// so it must be wider than a record signature or it saturates; 0 means
  /// auto: signature_bytes * max(1, group_size / 4).
  Bytes group_signature_bytes = 0;
};

/// Up to N values in place, more on the heap. The query side holds one
/// entry per set query bit in these, so a walk allocates nothing unless
/// its query sets more than N bits.
template <typename T, std::size_t N>
class InlineList {
 public:
  static constexpr std::size_t kInline = N;

  void push_back(T value) {
    if (size_ < N) {
      inline_[size_] = value;
    } else {
      if (size_ == N) spilled_.assign(inline_.begin(), inline_.end());
      spilled_.push_back(value);
    }
    ++size_;
  }
  std::size_t size() const { return size_; }
  const T* begin() const {
    return size_ <= N ? inline_.data() : spilled_.data();
  }
  const T* end() const { return begin() + size_; }
  const T& operator[](std::size_t i) const { return begin()[i]; }

 private:
  std::array<T, N> inline_{};
  std::vector<T> spilled_;
  std::size_t size_ = 0;
};

/// A query signature as its set bits: the distinct bit positions a query
/// value hashes to, at most bits_per_attribute of them. The default
/// weight, 8, fits in place.
using QueryBits = InlineList<int, 8>;

/// Generates record and query signatures.
///
/// A record signature superimposes (ORs) the bit strings of the key and
/// every attribute, each attribute hashing to `bits_per_attribute` bit
/// positions of a (signature_bytes * 8)-bit string — exactly the paper's
/// "hashing each field of a record into a random bit string and then
/// superimposing together all the bit strings" (Section 2.3). A field's
/// positions come from a chain of Mix64 steps over the field's hash,
/// each reduced modulo the bit count (a mask when the count is a power of
/// two, which gives the same position).
///
/// A query on the primary key contributes only the key's bit string; a
/// record *matches* when its signature covers every query bit. A match
/// whose record does not actually carry the key is a false drop.
class SignatureGenerator {
 public:
  /// Generator over (signature_bytes * 8)-bit strings.
  SignatureGenerator(Bytes signature_bytes, SignatureParams params);

  /// Convenience: uses geometry.signature_bytes.
  SignatureGenerator(const BucketGeometry& geometry, SignatureParams params);

  /// Width of the generated signatures in bytes.
  Bytes signature_bytes() const { return signature_bytes_; }

  /// Number of 64-bit words per signature.
  int words() const { return words_; }

  /// ORs the signature of `record` into the words() words at `sig`: on
  /// zeroed words this writes the record signature, and over a group's
  /// members in turn their group signature. Builders write straight into
  /// the arena's word pool this way. The fields' chains are independent,
  /// so they run interleaved.
  void SuperimposeRecord(const Record& record, std::uint64_t* sig) const;

  /// The set bits of the query signature of `value`, a key or an
  /// attribute value.
  QueryBits Query(std::string_view value) const;

  /// True when the signature at `sig` has every bit of `query`.
  static bool Covers(const std::uint64_t* sig, const QueryBits& query) {
    for (const int bit : query) {
      if (((sig[bit / 64] >> (bit % 64)) & 1) == 0) return false;
    }
    return true;
  }

  /// Full record signature (key + all attributes superimposed) as words.
  std::vector<std::uint64_t> RecordSignature(const Record& record) const;

  /// Query signature for a primary-key lookup, as words.
  std::vector<std::uint64_t> QuerySignature(std::string_view key) const;

  /// True when `record_sig` covers every bit of `query_sig`.
  static bool Matches(const std::uint64_t* record_sig,
                      const std::uint64_t* query_sig, int words);

 private:
  /// Sets the bits of `lanes` fields whose hashes are `h` (consumed).
  template <bool kMask>
  void SuperimposeFields(std::uint64_t* h, int lanes,
                         std::uint64_t* sig) const;

  Bytes signature_bytes_;
  int words_;
  int bits_;
  /// bits_ - 1 when bits_ is a power of two, else 0 (reduce modulo).
  std::uint64_t mask_;
  SignatureParams params_;
};

/// The group-signature width used by the integrated and multi-level
/// schemes: params.group_signature_bytes, or the auto rule when 0.
Bytes ResolveGroupSignatureBytes(const BucketGeometry& geometry,
                                 const SignatureParams& params,
                                 int group_size);

/// Simple signature indexing (Lee & Lee; paper Section 2.3).
///
/// The cycle alternates a signature bucket (It bytes) and the data bucket
/// it abstracts (Dt bytes). A client sifts through every signature
/// bucket, dozing over the data bucket unless the signature matches; a
/// matching signature triggers a download, which is either the requested
/// record or a false drop.
class SignatureIndexing : public BroadcastScheme {
 public:
  static Result<SignatureIndexing> Build(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params = SignatureParams());

  /// Adopts `view`, bound to a restored program arena. The record
  /// signature table is the arena's word pool, so no rehashing runs; the
  /// cycle must be the alternating one Build lays out — pair k is
  /// (signature of record k, data of record k) — or the restore fails
  /// with InvalidArgument.
  static Result<SignatureIndexing> Restore(
      std::shared_ptr<const Dataset> dataset, const BucketGeometry& geometry,
      SignatureParams params, ArenaChannelView view);

  const ArenaChannelView& view() const override { return view_; }

  /// Closed-form protocol walk instead of bucket-by-bucket simulation:
  /// the sifted window's match count is a popcount over the query's bit
  /// slices, O(k * n/64) words for a k-bit query over n records.
  AccessResult Access(std::string_view key, Bytes tune_in) const override;

  /// Attribute filtering — the capability signatures exist for: collect
  /// every record whose attributes carry `value`, sifting one full cycle
  /// of signatures and downloading only the matches (plus false drops).
  /// B+-tree air indexes cannot serve such queries at all; the flat
  /// baseline must listen to the entire cycle.
  FilterResult Filter(std::string_view value, Bytes tune_in) const;

  /// Measured per-record false-drop probability for key queries: the
  /// fraction of (query key, other record) pairs that match. Computed by
  /// sampling; feeds the analytical model.
  double MeasureFalseDropRate(int sample_queries, std::uint64_t seed) const;

  const SignatureGenerator& generator() const { return generator_; }

 private:
  SignatureIndexing(std::shared_ptr<const Dataset> dataset,
                    SignatureGenerator generator, ArenaChannelView view);

  std::shared_ptr<const Dataset> dataset_;
  SignatureGenerator generator_;
  /// Its word pool is the record signature table: the alternating cycle
  /// writes record k's signature as row k (words() per record).
  ArenaChannelView view_;
  /// The same table bit-sliced (column-major), derived from the word pool
  /// at construction: slice b is a bitmap over records, bit k set when
  /// record k's signature has bit b. Access, Filter and
  /// MeasureFalseDropRate count matches by ANDing only the query's set-bit
  /// slices; the broadcast itself still carries the row-major pool.
  std::vector<std::uint64_t> slices_;
};

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_SIGNATURE_H_
