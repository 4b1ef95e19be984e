// Per-broker health sample, filled by the transport/router layer and
// consumed by the time-series sampler (obs/timeseries.h). Its own tiny
// header so routing code can implement the sampling hook without pulling in
// the whole time-series store.
#pragma once

#include <cstdint>

namespace dcrd {

// One broker's instantaneous health. All zero for a broker with nothing in
// flight.
struct BrokerHealth {
  std::uint64_t pending_copies = 0;  // in-flight copies this broker is sending
  std::uint64_t dedup_entries = 0;   // copies the receiver remembers
  // Largest live adaptive RTO (us) over the broker's outgoing links; 0
  // until the estimator has a real sample (and always 0 in fixed-timer
  // mode).
  std::uint64_t rto_us = 0;
};

}  // namespace dcrd
