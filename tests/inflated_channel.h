// The Channel a scheme's program arena inflates to: heap Bucket vectors
// with Channel's own phase arithmetic. Tests that inspect bucket fields
// (entries, control parts, signatures) or walk the cycle independently
// of the arena view read this; the scheme itself keeps only its view.
// Key views point into the scheme's arena, so the scheme must outlive
// the returned channel.
#ifndef AIRINDEX_TESTS_INFLATED_CHANNEL_H_
#define AIRINDEX_TESTS_INFLATED_CHANNEL_H_

#include "broadcast/channel.h"
#include "schemes/access.h"

namespace airindex {

inline Channel InflatedChannel(const BroadcastScheme& scheme) {
  return scheme.view().arena().InflateChannels().value().front();
}

}  // namespace airindex

#endif  // AIRINDEX_TESTS_INFLATED_CHANNEL_H_
