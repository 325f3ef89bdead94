#include "click/config_parser.hpp"

#include <gtest/gtest.h>

#include "click/elements/misc.hpp"
#include "lookup/radix_trie.hpp"
#include "packet/pool.hpp"
#include "testing/dataflow.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

FrameSpec Frame(uint32_t dst_ip = 0x0a000001) {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 0x0b000001;
  spec.flow.dst_ip = dst_ip;
  spec.flow.src_port = 100;
  spec.flow.dst_port = 200;
  spec.flow.protocol = 17;
  return spec;
}

class ConfigParserTest : public ::testing::Test {
 protected:
  ConfigParserTest() {
    NicConfig nc;
    nc.num_rx_queues = 1;  // all test frames land on queue 0
    nc.num_tx_queues = 2;
    nc.kn = 1;
    nic_in_ = std::make_unique<NicPort>(nc);
    nic_out_ = std::make_unique<NicPort>(nc);
    context_.ports = {nic_in_.get(), nic_out_.get()};
    table_.Insert(0x0a000000, 8, 1);
    table_.Insert(0x14000000, 8, 2);
    context_.table = &table_;
  }

  PacketPool pool_{256};
  std::unique_ptr<NicPort> nic_in_;
  std::unique_ptr<NicPort> nic_out_;
  RadixTrie table_;
  ConfigContext context_;
  Router router_;
};

TEST_F(ConfigParserTest, MinimalForwardingConfig) {
  const char* config = R"(
    // the §4.2 toy configuration
    src :: FromDevice(0, 0);
    q   :: Queue(256);
    dst :: ToDevice(1, 0);
    src -> Counter -> q -> dst;
  )";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.elements.size(), 3u);
  EXPECT_EQ(r.connections, 3);
  router_.Initialize();

  for (int i = 0; i < 5; ++i) {
    nic_in_->Deliver(AllocFrame(Frame(), &pool_), 0.0);
  }
  router_.RunUntilIdle();
  EXPECT_EQ(nic_out_->tx_counters().packets, 5u);
  Packet* burst[8];
  size_t n = nic_out_->DrainTx(burst, 8);
  for (size_t i = 0; i < n; ++i) {
    pool_.Free(burst[i]);
  }
}

TEST_F(ConfigParserTest, FullIpRouterWithPorts) {
  const char* config = R"(
    src :: FromDevice(0, 0);
    rt  :: IPLookup(2);
    src -> CheckIPHeader -> DecIPTTL -> rt;
    rt [0] -> Queue -> ToDevice(0, 1);
    rt [1] -> Queue -> ToDevice(1, 1);
  )";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  ASSERT_TRUE(r.ok) << r.error;
  router_.Initialize();

  nic_in_->Deliver(AllocFrame(Frame(0x0a010101), &pool_), 0.0);  // hop 1 -> port 0
  nic_in_->Deliver(AllocFrame(Frame(0x14010101), &pool_), 0.0);  // hop 2 -> port 1
  router_.RunUntilIdle();
  EXPECT_EQ(nic_in_->tx_counters().packets, 1u);
  EXPECT_EQ(nic_out_->tx_counters().packets, 1u);
  Packet* burst[4];
  for (NicPort* nic : {nic_in_.get(), nic_out_.get()}) {
    size_t n = nic->DrainTx(burst, 4);
    for (size_t i = 0; i < n; ++i) {
      pool_.Free(burst[i]);
    }
  }
}

TEST_F(ConfigParserTest, CommentsAndWhitespaceIgnored) {
  const char* config =
      "/* block\ncomment */ c :: Counter; // trailing\n d :: Discard;\n c -> d;";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.statements, 3);
}

TEST_F(ConfigParserTest, NamedElementsAreShared) {
  const char* config = R"(
    c :: Counter;
    t :: Tee(2);
    c -> t;
    t [0] -> Discard;
    t [1] -> Discard;
  )";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  ASSERT_TRUE(r.ok) << r.error;
  router_.Initialize();
  auto* counter = dynamic_cast<CounterElement*>(r.elements.at("c"));
  ASSERT_NE(counter, nullptr);
  Packet* p = AllocFrame(Frame(), &pool_);
  PushOne(counter, p);
  EXPECT_EQ(counter->counters().packets, 1u);
  EXPECT_EQ(pool_.available(), pool_.capacity());  // both tee copies discarded
}

TEST_F(ConfigParserTest, UnknownClassReported) {
  ConfigParseResult r = ParseClickConfig("x :: FluxCapacitor;", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("FluxCapacitor"), std::string::npos);
}

TEST_F(ConfigParserTest, UnknownNameReported) {
  ConfigParseResult r = ParseClickConfig("c :: Counter; c -> nope;", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nope"), std::string::npos);
}

TEST_F(ConfigParserTest, DuplicateDeclarationReported) {
  ConfigParseResult r = ParseClickConfig("c :: Counter; c :: Discard;", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("twice"), std::string::npos);
}

TEST_F(ConfigParserTest, DoubleWiringReported) {
  const char* config = "c :: Counter; a :: Discard; b :: Discard; c -> a; c -> b;";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already wired"), std::string::npos);
}

TEST_F(ConfigParserTest, PortOutOfRangeReported) {
  ConfigParseResult r =
      ParseClickConfig("c :: Counter; d :: Discard; c [3] -> d;", &router_, context_);
  EXPECT_FALSE(r.ok);
}

TEST_F(ConfigParserTest, DeviceIndexOutOfRangeReported) {
  ConfigParseResult r = ParseClickConfig("src :: FromDevice(9, 0);", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos);
}

TEST_F(ConfigParserTest, IpLookupWithoutTableReported) {
  ConfigContext no_table;
  no_table.ports = context_.ports;
  Router r2;
  ConfigParseResult r = ParseClickConfig("rt :: IPLookup(2);", &r2, no_table);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("routing table"), std::string::npos);
}

TEST_F(ConfigParserTest, BadIntegerReported) {
  ConfigParseResult r = ParseClickConfig("q :: Queue(lots);", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lots"), std::string::npos);
}

TEST_F(ConfigParserTest, ErrorsIncludeStatementNumber) {
  ConfigParseResult r = ParseClickConfig("c :: Counter;\n x :: Bogus;", &router_, context_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("statement 2"), std::string::npos);
}

TEST_F(ConfigParserTest, ClassifierChainWorks) {
  const char* config = R"(
    cls :: IpProtoClassifier(6, 17);
    tcp :: Counter;  udp :: Counter;  other :: Counter;
    cls [0] -> tcp -> Discard;
    cls [1] -> udp -> Discard;
    cls [2] -> other -> Discard;
  )";
  ConfigParseResult r = ParseClickConfig(config, &router_, context_);
  ASSERT_TRUE(r.ok) << r.error;
  router_.Initialize();
  auto* cls = r.elements.at("cls");
  FrameSpec tcp_spec = Frame();
  tcp_spec.flow.protocol = 6;
  PushOne(cls, AllocFrame(tcp_spec, &pool_));
  PushOne(cls, AllocFrame(Frame(), &pool_));  // udp
  EXPECT_EQ(dynamic_cast<CounterElement*>(r.elements.at("tcp"))->counters().packets, 1u);
  EXPECT_EQ(dynamic_cast<CounterElement*>(r.elements.at("udp"))->counters().packets, 1u);
  EXPECT_EQ(dynamic_cast<CounterElement*>(r.elements.at("other"))->counters().packets, 0u);
}

}  // namespace
}  // namespace rb
