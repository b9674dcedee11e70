#ifndef AIRINDEX_CORE_DEADLINE_H_
#define AIRINDEX_CORE_DEADLINE_H_

// Forwarding header: DeadlinePolicy and ApplyDeadline live with the
// client's over-the-air walk in client/air_walk.h.
#include "client/air_walk.h"

#endif  // AIRINDEX_CORE_DEADLINE_H_
