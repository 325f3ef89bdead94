// Output checks, each computed apart from the router library: a reference
// longest-prefix match over the generated route list, from-scratch
// checksums, a NAT mapping audit, ESP decapsulation with a separately built
// tunnel, and the cluster simulator's conservation and zero-load latency.
#ifndef PERFBENCH_CHECKS_HPP_
#define PERFBENCH_CHECKS_HPP_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/des.hpp"
#include "crypto/esp.hpp"
#include "frames.hpp"
#include "lookup/lpm.hpp"
#include "packet/pool.hpp"

namespace perfbench {

// One injected frame of a round and what the benchmark expects of it.
struct Injected {
  uint32_t offset = 0;  // into the round's byte store
  uint32_t len = 0;
  int in_port = 0;
  int expect_port = 0;
  uint32_t flow = 0;  // index into the workload's flow population
};

// The frames of one round, named by consecutive tags starting at a base.
class Round {
 public:
  explicit Round(size_t capacity);

  void Reset(uint32_t base_tag);
  // Adds a frame; returns its tag and the buffer to build it in.
  uint8_t* Append(uint32_t len, int in_port, int expect_port, uint32_t flow, uint32_t* tag);

  size_t size() const { return frames_.size(); }
  const Injected& at(size_t i) const { return frames_[i]; }
  const uint8_t* bytes(const Injected& f) const { return bytes_.data() + f.offset; }
  // The frame named by `tag`, marked as seen; nullptr when the tag is not
  // from this round or was already seen (a duplicated output).
  const Injected* Claim(uint32_t tag);
  size_t claimed() const { return claimed_count_; }

 private:
  static constexpr uint32_t kStride = 1536;
  std::vector<uint8_t> bytes_;
  std::vector<Injected> frames_;
  std::vector<uint8_t> claimed_;
  size_t claimed_count_ = 0;
  uint32_t base_ = 0;
};

class OutputChecker {
 public:
  virtual ~OutputChecker() = default;
  // Checks one transmitted frame; returns "" or what is wrong with it.
  virtual std::string Check(Round& round, const uint8_t* out, uint32_t len, int out_port) = 0;
};

// Minimal forwarding: the frame leaves unchanged on the expected port.
class FwdCheck : public OutputChecker {
 public:
  std::string Check(Round& round, const uint8_t* out, uint32_t len, int out_port) override;
};

// Within each NAT, inside flow -> public port must be a function and
// one-to-one.
class NatMapCheck {
 public:
  explicit NatMapCheck(int nats);
  std::string Observe(int nat, uint32_t flow, uint16_t public_port);
  size_t mappings() const;

 private:
  std::vector<std::unordered_map<uint32_t, uint16_t>> port_of_flow_;
  std::vector<std::unordered_map<uint16_t, uint32_t>> flow_of_port_;
};

// IP routing behind source NAT: LPM port, TTL, checksums, NAT rewrite.
class RtrCheck : public OutputChecker {
 public:
  RtrCheck(uint32_t external_ip, int nats) : external_ip_(external_ip), nat_map_(nats) {}
  std::string Check(Round& round, const uint8_t* out, uint32_t len, int out_port) override;
  const NatMapCheck& nat_map() const { return nat_map_; }

 private:
  uint32_t external_ip_;
  NatMapCheck nat_map_;
};

// ESP tunnel: a separately built tunnel decapsulates the output back to
// the injected frame, and sequence numbers rise by one per output port.
class EspCheck : public OutputChecker {
 public:
  EspCheck(const rb::EspConfig& config, int ports);
  std::string Check(Round& round, const uint8_t* out, uint32_t len, int out_port) override;

 private:
  rb::EspTunnel tunnel_;
  rb::PacketPool scratch_;
  std::vector<uint32_t> next_seq_;
};

// Longest-prefix match over a route list by exhaustive per-length hashing.
class ReferenceLpm {
 public:
  explicit ReferenceLpm(const std::vector<rb::RouteEntry>& routes);
  // Next hop of the longest matching prefix, or 0 when none matches.
  uint32_t Lookup(uint32_t addr) const;

 private:
  std::vector<std::unordered_map<uint32_t, uint32_t>> by_length_;  // [0..32]
};

// FIPS-197 appendix C.1 through the library's Aes128.
std::string CheckAesVector();

// Latency of a `bytes`-byte packet on the direct path between two distinct
// nodes of an idle cluster, summed from the configuration's constants.
double ZeroLoadLatencySeconds(const rb::ClusterConfig& config, uint32_t bytes);

// Conservation with nothing lost, and the median latency within
// `tolerance` (a fraction) of the zero-load latency.
std::string CheckDesRun(const rb::ClusterRunStats& stats, double zero_load_s, double tolerance);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_HPP_
