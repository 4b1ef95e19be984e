#include "pubsub/packet.h"

#include <gtest/gtest.h>

namespace dcrd {
namespace {

Message TestMessage() {
  Message message;
  message.id = MessageId(42);
  message.topic = TopicId(1);
  message.publisher = NodeId(0);
  message.publish_time = SimTime::FromMicros(1000);
  return message;
}

TEST(PacketTest, DestinationsAreSortedAndSearchable) {
  const Packet packet(TestMessage(), {NodeId(5), NodeId(2), NodeId(9)});
  EXPECT_EQ(packet.destinations(),
            (std::vector<NodeId>{NodeId(2), NodeId(5), NodeId(9)}));
  EXPECT_TRUE(packet.IsDestination(NodeId(5)));
  EXPECT_FALSE(packet.IsDestination(NodeId(4)));
}

TEST(PacketTest, RoutingPathStartsEmpty) {
  const Packet packet(TestMessage(), {NodeId(5)});
  EXPECT_TRUE(packet.routing_path().empty());
  EXPECT_FALSE(packet.OnRoutingPath(NodeId(0)));
}

TEST(PacketTest, RecordOnPathAppendsUnconditionally) {
  // Algorithm 2 line 20: every sender stamps itself before every send, so
  // revisits produce duplicate entries — the path's tail is always the
  // last sender.
  Packet packet(TestMessage(), {NodeId(5)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(3));
  packet.RecordOnPath(NodeId(0));
  EXPECT_EQ(packet.routing_path(),
            (std::vector<NodeId>{NodeId(0), NodeId(3), NodeId(0)}));
  EXPECT_TRUE(packet.OnRoutingPath(NodeId(3)));
}

TEST(PacketTest, UpstreamLookup) {
  Packet packet(TestMessage(), {NodeId(5)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(3));
  packet.RecordOnPath(NodeId(7));
  EXPECT_EQ(packet.UpstreamOf(NodeId(7)), NodeId(3));
  EXPECT_EQ(packet.UpstreamOf(NodeId(3)), NodeId(0));
  // The path head (publisher) has no upstream.
  EXPECT_FALSE(packet.UpstreamOf(NodeId(0)).valid());
  // Nodes not on the path have no upstream either.
  EXPECT_FALSE(packet.UpstreamOf(NodeId(9)).valid());
}

TEST(PacketTest, UpstreamUsesFirstOccurrenceAfterRevisit) {
  // 0 -> 3 -> back to 0 -> 7: node 3's original upstream stays 0, and node
  // 7 (fresh) sees the last sender 0 as path tail.
  Packet packet(TestMessage(), {NodeId(5)});
  packet.RecordOnPath(NodeId(0));
  packet.RecordOnPath(NodeId(3));
  packet.RecordOnPath(NodeId(0));
  EXPECT_EQ(packet.UpstreamOf(NodeId(3)), NodeId(0));
  EXPECT_EQ(packet.routing_path().back(), NodeId(0));
}

TEST(PacketTest, AssignNarrowedKeepsMessageAndPath) {
  Packet packet(TestMessage(), {NodeId(5), NodeId(6)});
  packet.RecordOnPath(NodeId(0));
  packet.set_flow_label(1);
  Packet narrowed;
  narrowed.AssignNarrowed(packet, std::vector<NodeId>{NodeId(6)});
  EXPECT_EQ(narrowed.destinations(), (std::vector<NodeId>{NodeId(6)}));
  EXPECT_EQ(narrowed.message().id, MessageId(42));
  EXPECT_EQ(narrowed.routing_path(), packet.routing_path());
  EXPECT_EQ(narrowed.flow_label(), 1);
  // The original is untouched.
  EXPECT_EQ(packet.destinations().size(), 2U);
}

TEST(PacketTest, AssignNarrowedSortsNewSet) {
  const Packet packet(TestMessage(), {NodeId(1)});
  Packet widened;
  widened.AssignNarrowed(packet, std::vector<NodeId>{NodeId(9), NodeId(3)});
  EXPECT_EQ(widened.destinations(),
            (std::vector<NodeId>{NodeId(3), NodeId(9)}));
}

// Field-for-field equality: the message, the flow label, the routing path
// and the (sorted) destinations.
void ExpectSamePacket(const Packet& a, const Packet& b) {
  EXPECT_EQ(a.message().id, b.message().id);
  EXPECT_EQ(a.message().topic, b.message().topic);
  EXPECT_EQ(a.message().publisher, b.message().publisher);
  EXPECT_EQ(a.message().publish_time, b.message().publish_time);
  EXPECT_EQ(a.flow_label(), b.flow_label());
  EXPECT_EQ(a.routing_path(), b.routing_path());
  EXPECT_EQ(a.destinations(), b.destinations());
}

TEST(PacketTest, AssignNarrowedEqualsConstructedPacket) {
  Packet source(TestMessage(), {NodeId(2), NodeId(9), NodeId(4), NodeId(7)});
  source.RecordOnPath(NodeId(0));
  source.RecordOnPath(NodeId(3));
  source.set_flow_label(5);
  const std::vector<NodeId> group = {NodeId(9), NodeId(2), NodeId(7)};
  // The same packet built from scratch: the group as its destinations, the
  // source's path and label.
  Packet expected(TestMessage(), group);
  expected.RecordOnPath(NodeId(0));
  expected.RecordOnPath(NodeId(3));
  expected.set_flow_label(5);

  // A recycled packet: another message, a longer path, another label.
  Message other = TestMessage();
  other.id = MessageId(7);
  other.topic = TopicId(3);
  Packet recycled(other, {NodeId(1), NodeId(8)});
  for (std::uint32_t v = 10; v < 15; ++v) recycled.RecordOnPath(NodeId(v));
  recycled.set_flow_label(2);

  recycled.AssignNarrowed(source, group);
  ExpectSamePacket(recycled, expected);
  EXPECT_EQ(recycled.destinations(),
            (std::vector<NodeId>{NodeId(2), NodeId(7), NodeId(9)}));
}

TEST(PacketTest, AssignEqualsConstructor) {
  Packet recycled(TestMessage(), {NodeId(1)});
  recycled.RecordOnPath(NodeId(0));
  recycled.set_flow_label(3);
  Message other = TestMessage();
  other.id = MessageId(8);
  const std::vector<NodeId> destinations = {NodeId(6), NodeId(1), NodeId(4)};

  recycled.Assign(other, destinations);
  ExpectSamePacket(recycled, Packet(other, destinations));
}

TEST(PacketTest, InPlaceNarrowKeepsBuffersWithinCapacity) {
  Packet source(TestMessage(), {NodeId(1), NodeId(2), NodeId(3)});
  source.RecordOnPath(NodeId(0));
  source.RecordOnPath(NodeId(4));
  Packet scratch;
  scratch.AssignNarrowed(source, source.destinations());  // sizes the buffers
  const NodeId* destinations = scratch.destinations().data();
  const NodeId* path = scratch.routing_path().data();

  // Contents that fit the capacity never move the buffers: no allocation.
  for (int round = 0; round < 3; ++round) {
    scratch.AssignNarrowed(source, std::vector<NodeId>{NodeId(3), NodeId(1)});
    EXPECT_EQ(scratch.destinations().data(), destinations);
    EXPECT_EQ(scratch.routing_path().data(), path);
    scratch.Assign(TestMessage(), source.destinations());
    EXPECT_EQ(scratch.destinations().data(), destinations);
    EXPECT_EQ(scratch.routing_path().data(), path);
    EXPECT_TRUE(scratch.routing_path().empty());
  }
}

TEST(PacketTest, FlowLabelDefaultsToZero) {
  const Packet packet(TestMessage(), {NodeId(1)});
  EXPECT_EQ(packet.flow_label(), 0);
}

}  // namespace
}  // namespace dcrd
