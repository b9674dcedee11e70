#ifndef AIRINDEX_SCHEMES_TRACE_H_
#define AIRINDEX_SCHEMES_TRACE_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "schemes/channel_view.h"

namespace airindex {

/// What the client did during one step of an access-protocol walk.
enum class ProbeAction {
  /// Listened from tune-in to the first complete bucket boundary.
  kInitialWait,
  /// Read a bucket in full (radio on).
  kRead,
  /// Dozed (radio off) until a target phase arrived.
  kDoze,
  /// Read the requested record's data bucket (the final download).
  kDownload,
  /// Applied the "K below the last broadcast key" rule: dozed to the
  /// next broadcast cycle.
  kRestart,
  /// Followed the control index up to an ancestor's next occurrence.
  kClimb,
  /// Concluded (found, or proved not-on-air).
  kConclude,
};

/// Printable name of a probe action.
const char* ProbeActionToString(ProbeAction action);

/// One step of a traced protocol walk.
struct ProbeEvent {
  /// Absolute simulated time at which the step began.
  Bytes at = 0;
  /// Bytes the step spanned (listening for kRead/kDownload/kInitialWait,
  /// silence for kDoze/kRestart/kClimb).
  Bytes duration = 0;
  ProbeAction action = ProbeAction::kRead;
  /// Channel bucket index the step involved (kRead/kDownload), or
  /// npos-like value when not applicable.
  std::size_t bucket = static_cast<std::size_t>(-1);
  /// Free-form annotation ("descend to level 2", "key passed", ...).
  std::string note;
};

/// A full annotated walk, in order.
using AccessTrace = std::vector<ProbeEvent>;

/// Pretty-prints a trace with bucket summaries from the program's view.
void PrintTrace(const AccessTrace& trace, const ArenaChannelView& view,
                std::ostream& os);

/// Human-readable dump of a broadcast cycle, one line per bucket:
///
///   [   12 @  6000..6499] index  L2 range=[caaab..cazzz] local=17 ctl=2
///   [   13 @  6500..6999] data   record=41
///
/// Prints at most `max_buckets` lines (then an ellipsis with the
/// remaining count). Intended for debugging channel builders and for the
/// examples to show what a scheme actually puts on air.
void DescribeChannel(const ArenaChannelView& view, std::ostream& os,
                     std::size_t max_buckets = 64);

}  // namespace airindex

#endif  // AIRINDEX_SCHEMES_TRACE_H_
