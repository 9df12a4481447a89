/** @file Unit tests for the network interface controller. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "sim/nic.h"

namespace noc {
namespace {

class NicFixture : public testing::Test
{
  protected:
    SimConfig cfg_;
    MeshTopology topo_{4, 4};
    std::uint64_t nextId_ = 1;
};

TEST_F(NicFixture, SegmentsPacketsIntoFlits)
{
    Nic nic(0, cfg_, topo_);
    nic.enqueuePacket(5, 100, nextId_, true);
    EXPECT_EQ(nic.queuedFlits(), 4u);
    EXPECT_EQ(nic.injectedPackets(), 1u);
    EXPECT_EQ(nic.injectedMeasured(), 1u);

    Flit head = nic.popPending();
    EXPECT_EQ(head.type, FlitType::Head);
    EXPECT_EQ(head.src, 0u);
    EXPECT_EQ(head.dst, 5u);
    EXPECT_EQ(head.createTime, 100u);
    EXPECT_EQ(head.packetLen, 4);
    EXPECT_TRUE(head.measured);

    EXPECT_EQ(nic.popPending().type, FlitType::Body);
    EXPECT_EQ(nic.popPending().type, FlitType::Body);
    Flit tail = nic.popPending();
    EXPECT_EQ(tail.type, FlitType::Tail);
    EXPECT_EQ(tail.flitSeq, 3);
    EXPECT_FALSE(nic.hasPending());
}

TEST_F(NicFixture, SingleFlitPacketIsHeadTail)
{
    cfg_.flitsPerPacket = 1;
    Nic nic(0, cfg_, topo_);
    nic.enqueuePacket(3, 0, nextId_, false);
    EXPECT_EQ(nic.popPending().type, FlitType::HeadTail);
}

TEST_F(NicFixture, DeliveryCompletesAtTail)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 10, nextId_, true);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(dst.deliveredMeasured(), 0u);
        dst.deliverFlit(src.popPending(), 30 + i);
    }
    EXPECT_EQ(dst.deliveredPackets(), 1u);
    EXPECT_EQ(dst.deliveredMeasured(), 1u);
    EXPECT_EQ(dst.deliveredFlits(), 4u);
    // Latency: tail delivered at 33, created at 10.
    EXPECT_DOUBLE_EQ(dst.latency().mean(), 23.0);
    EXPECT_EQ(dst.lastDelivery(), 33u);
}

TEST_F(NicFixture, UnmeasuredPacketsSkipLatencyStats)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 10, nextId_, false);
    for (int i = 0; i < 4; ++i)
        dst.deliverFlit(src.popPending(), 20);
    EXPECT_EQ(dst.deliveredPackets(), 1u);
    EXPECT_EQ(dst.deliveredMeasured(), 0u);
    EXPECT_EQ(dst.latency().count(), 0u);
}

TEST_F(NicFixture, GenerationRespectsEnableFlag)
{
    cfg_.injectionRate = 1.0; // fires essentially every cycle
    Nic nic(0, cfg_, topo_);
    for (Cycle t = 0; t < 100; ++t)
        EXPECT_EQ(nic.generate(t, false, false), 0);
    EXPECT_EQ(nic.injectedPackets(), 0u);
    std::uint64_t generated = 0;
    for (Cycle t = 0; t < 100; ++t)
        generated += static_cast<std::uint64_t>(nic.generate(t, false, true));
    EXPECT_GT(nic.injectedPackets(), 10u);
    EXPECT_EQ(generated, nic.injectedPackets());
}

TEST_F(NicFixture, InterleavedDeliveriesReassembleByPacket)
{
    Nic a(0, cfg_, topo_);
    Nic b(1, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    a.enqueuePacket(5, 0, nextId_, true);
    b.enqueuePacket(5, 0, nextId_, true);
    // Interleave flits of the two packets (arriving on two ports).
    for (int i = 0; i < 4; ++i) {
        dst.deliverFlit(a.popPending(), 10);
        dst.deliverFlit(b.popPending(), 10);
    }
    EXPECT_EQ(dst.deliveredPackets(), 2u);
}

TEST_F(NicFixture, DeathOnWrongDestination)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(7, 0, nextId_, true);
    EXPECT_DEATH(dst.deliverFlit(src.popPending(), 1), "wrong NIC");
}

TEST_F(NicFixture, DeathOnOutOfOrderDelivery)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 0, nextId_, true);
    (void)src.popPending(); // drop the head
    Flit body = src.popPending();
    EXPECT_DEATH(dst.deliverFlit(body, 1), "out-of-order");
}

/** Every count, extreme, sum and percentile of two lanes' histograms. */
void
expectSameLane(const LatencyLane &a, const LatencyLane &b)
{
    ASSERT_EQ(a.latency.numBins(), b.latency.numBins());
    EXPECT_EQ(a.latency.total(), b.latency.total());
    for (int i = 0; i < a.latency.numBins(); ++i)
        EXPECT_EQ(a.latency.bin(i), b.latency.bin(i)) << "bin " << i;
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.latency.percentile(q), b.latency.percentile(q));
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t c = 0; c < a.classes.size(); ++c) {
        for (const auto member : {&svc::ClassHistograms::latency,
                                  &svc::ClassHistograms::rtt}) {
            const obs::HdrHistogram &x = a.classes[c].*member;
            const obs::HdrHistogram &y = b.classes[c].*member;
            EXPECT_EQ(x.count(), y.count());
            EXPECT_EQ(x.min(), y.min());
            EXPECT_EQ(x.max(), y.max());
            EXPECT_EQ(x.mean(), y.mean());
            for (std::size_t i = 0; i < x.bucketCount(); ++i)
                EXPECT_EQ(x.bucketValue(i), y.bucketValue(i));
            for (double q : {0.5, 0.99})
                EXPECT_EQ(x.percentile(q), y.percentile(q));
        }
    }
}

TEST(LatencyLaneTest, MergeOrderDoesNotChangeTheDistribution)
{
    // Three shard lanes with different, overlapping samples (some past
    // the open-loop histogram's 2048-cycle overflow bin).
    std::array<LatencyLane, 3> lanes = {LatencyLane(true), LatencyLane(true),
                                        LatencyLane(true)};
    Rng rng(7, 1);
    for (int l = 0; l < 3; ++l) {
        for (int i = 0; i < 500 * (l + 1); ++i) {
            const std::uint64_t v =
                rng.nextRange(600u * static_cast<std::uint64_t>(l + 1)) +
                900u * static_cast<std::uint64_t>(l);
            lanes[static_cast<std::size_t>(l)].latency.add(
                static_cast<double>(v));
            svc::ClassHistograms &h = lanes[static_cast<std::size_t>(l)].of(
                static_cast<MsgClass>(i % kNumMsgClasses));
            h.latency.record(v);
            if (i % 3 == 0)
                h.rtt.record(2 * v + 1);
        }
    }

    std::array<int, 3> order = {0, 1, 2};
    LatencyLane reference(true);
    for (int l : order)
        reference.merge(lanes[static_cast<std::size_t>(l)]);
    EXPECT_EQ(reference.latency.total(), 500u + 1000u + 1500u);
    int permutations = 0;
    do {
        LatencyLane merged(true);
        for (int l : order)
            merged.merge(lanes[static_cast<std::size_t>(l)]);
        expectSameLane(merged, reference);
        ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 6);
}

} // namespace
} // namespace noc
