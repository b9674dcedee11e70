#include "schemes/trace.h"

#include <algorithm>
#include <iomanip>

namespace airindex {

const char* ProbeActionToString(ProbeAction action) {
  switch (action) {
    case ProbeAction::kInitialWait:
      return "initial-wait";
    case ProbeAction::kRead:
      return "read";
    case ProbeAction::kDoze:
      return "doze";
    case ProbeAction::kDownload:
      return "download";
    case ProbeAction::kRestart:
      return "restart";
    case ProbeAction::kClimb:
      return "climb";
    case ProbeAction::kConclude:
      return "conclude";
  }
  return "unknown";
}

void PrintTrace(const AccessTrace& trace, const ArenaChannelView& view,
                std::ostream& os) {
  for (const ProbeEvent& event : trace) {
    os << "t=" << std::setw(10) << event.at << "  " << std::setw(12)
       << ProbeActionToString(event.action) << "  +" << std::setw(8)
       << event.duration;
    if (event.bucket < view.num_buckets()) {
      const auto bucket = view.bucket(event.bucket);
      os << "  bucket " << std::setw(6) << event.bucket << " ("
         << BucketKindToString(bucket.kind());
      if (bucket.kind() == BucketKind::kIndex) {
        os << " L" << bucket.level();
      }
      if (bucket.record_id() >= 0) {
        os << " rec=" << bucket.record_id();
      }
      os << ")";
    }
    if (!event.note.empty()) os << "  " << event.note;
    os << '\n';
  }
}

void DescribeChannel(const ArenaChannelView& view, std::ostream& os,
                     std::size_t max_buckets) {
  os << "cycle: " << view.num_buckets() << " buckets, " << view.cycle_bytes()
     << " bytes (" << view.num_data_buckets() << " data, "
     << view.num_index_buckets() << " index, "
     << view.num_signature_buckets() << " signature)\n";
  const std::size_t shown = std::min(max_buckets, view.num_buckets());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto bucket = view.bucket(i);
    os << '[' << std::setw(6) << i << " @ " << std::setw(8)
       << view.start_phase(i) << ".." << view.end_phase(i) - 1 << "] ";
    switch (bucket.kind()) {
      case BucketKind::kData:
        os << "data      ";
        if (bucket.record_id() >= 0) {
          os << "record=" << bucket.record_id();
        } else {
          os << "(empty slot)";
        }
        if (bucket.slot() >= 0) {
          os << " slot=" << bucket.slot() << " shift->"
             << bucket.shift_phase();
        }
        break;
      case BucketKind::kIndex:
        os << "index  L" << bucket.level() << " range=[" << bucket.range_lo()
           << ".." << bucket.range_hi() << "] local=" << bucket.local_count()
           << " ctl=" << bucket.control_count();
        if (!bucket.last_broadcast_key().empty()) {
          os << " last=" << bucket.last_broadcast_key();
        }
        break;
      case BucketKind::kSignature:
        os << "signature ";
        if (bucket.level() == 1) os << "(group) ";
        os << "record=" << bucket.record_id()
           << " bits=" << bucket.signature_word_count() * 64;
        break;
    }
    os << '\n';
  }
  if (shown < view.num_buckets()) {
    os << "... (" << view.num_buckets() - shown << " more buckets)\n";
  }
}

}  // namespace airindex
