#ifndef AIRINDEX_CORE_REQUEST_GENERATOR_H_
#define AIRINDEX_CORE_REQUEST_GENERATOR_H_

#include "client/request_stream.h"

namespace airindex {

/// The testbed's RequestGenerator (paper Section 3): one client's request
/// process, as one RequestModel (client/request_stream.h) plus the one
/// RequestStream that draws from it.
class RequestGenerator {
 public:
  /// The model's arguments (the replication engine passes its shared
  /// Zipf table, built once per sweep shape), plus the stream's `rng`.
  RequestGenerator(const Dataset* dataset, double data_availability,
                   double mean_interval_bytes, Rng rng,
                   double zipf_theta = 0.0,
                   const ZipfDistribution* shared_zipf = nullptr,
                   SessionWorkload session = {})
      : model_(dataset, data_availability, mean_interval_bytes, zipf_theta,
               shared_zipf, session),
        stream_(rng) {}

  /// Bytes until the next request arrives (exponential draw, >= 1).
  Bytes NextInterArrival() { return stream_.NextInterArrival(model_); }

  /// Draws the next query.
  Query NextQuery() { return stream_.NextQuery(model_); }

 private:
  RequestModel model_;
  RequestStream stream_;
};

}  // namespace airindex

#endif  // AIRINDEX_CORE_REQUEST_GENERATOR_H_
