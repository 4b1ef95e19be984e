// Messages and packets.
//
// A Message is the application-level publication (one per publisher per
// second in the paper's workload). A Packet is a hop-level carrier for a
// message: it names the subscriber brokers it is still responsible for and
// records — per Algorithm 2 — every broker that has forwarded it (the
// "routing path"), which both prevents forwarding loops and lets a broker
// locate its upstream node when rerouting.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/logging.h"
#include "common/sim_time.h"

namespace dcrd {

struct Message {
  MessageId id;
  TopicId topic;
  NodeId publisher;
  SimTime publish_time;
};

class Packet {
 public:
  Packet() = default;
  Packet(Message msg, std::vector<NodeId> destinations)
      : message_(msg), destinations_(std::move(destinations)) {
    std::sort(destinations_.begin(), destinations_.end());
  }

  [[nodiscard]] const Message& message() const { return message_; }
  // Protocol-private tag carried with the packet; the Multipath baseline
  // uses it to distinguish which of a subscriber's route copies this is.
  [[nodiscard]] std::uint8_t flow_label() const { return flow_label_; }
  void set_flow_label(std::uint8_t label) { flow_label_ = label; }
  [[nodiscard]] const std::vector<NodeId>& destinations() const {
    return destinations_;
  }
  [[nodiscard]] const std::vector<NodeId>& routing_path() const {
    return routing_path_;
  }

  [[nodiscard]] bool IsDestination(NodeId node) const {
    return std::binary_search(destinations_.begin(), destinations_.end(),
                              node);
  }
  [[nodiscard]] bool OnRoutingPath(NodeId node) const {
    return std::find(routing_path_.begin(), routing_path_.end(), node) !=
           routing_path_.end();
  }

  // Appends `node` to the routing path. Deliberately unconditional, exactly
  // as in Algorithm 2 line 20: every sender stamps itself before every
  // send, so the path's last entry is always the broker the receiver got
  // the packet from, and the entry before a broker's *first* occurrence is
  // the upstream broker that originally handed the packet down. Membership
  // (loop prevention) is unaffected by the duplicates.
  void RecordOnPath(NodeId node) { routing_path_.push_back(node); }

  // The broker that originally handed the packet to `node` on the way
  // *down* from the publisher: the entry immediately preceding `node`'s
  // first occurrence on the routing path. Invalid NodeId when `node` heads
  // the path (the publisher) or is not on it.
  [[nodiscard]] NodeId UpstreamOf(NodeId node) const {
    const auto it =
        std::find(routing_path_.begin(), routing_path_.end(), node);
    if (it == routing_path_.end() || it == routing_path_.begin()) {
      return NodeId();
    }
    return *(it - 1);
  }

  // In-place builders that overwrite every field but keep this packet's
  // buffer capacity, so a recycled packet (a pooled episode's base, a send
  // scratch) takes new contents without allocating once its buffers are
  // large enough. `destinations` must not alias this packet's own buffers.
  // Assign is the constructor's in-place form.
  void Assign(const Message& msg, std::span<const NodeId> destinations) {
    message_ = msg;
    destinations_.assign(destinations.begin(), destinations.end());
    std::sort(destinations_.begin(), destinations_.end());
    routing_path_.clear();
    flow_label_ = 0;
  }
  // AssignNarrowed derives the packet a broker actually sends: `source`'s
  // message, path and flow label, its destination set narrowed to the
  // subscribers the chosen next hop covers.
  void AssignNarrowed(const Packet& source,
                      std::span<const NodeId> destinations) {
    DCRD_CHECK(&source != this);
    message_ = source.message_;
    destinations_.assign(destinations.begin(), destinations.end());
    std::sort(destinations_.begin(), destinations_.end());
    routing_path_ = source.routing_path_;
    flow_label_ = source.flow_label_;
  }

 private:
  Message message_;
  std::vector<NodeId> destinations_;
  std::vector<NodeId> routing_path_;
  std::uint8_t flow_label_ = 0;
};

}  // namespace dcrd
