#include "click/elements/to_device.hpp"

#include "click/router.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace rb {

ToDevice::ToDevice(NicPort* port, uint16_t tx_queue, uint16_t burst, int home_core)
    : Element(1, 0), port_(port), tx_queue_(tx_queue), burst_(burst), home_core_(home_core) {
  RB_CHECK(port != nullptr);
  RB_CHECK(burst >= 1);
  RB_CHECK(tx_queue < port->num_tx_queues());
}

void ToDevice::Initialize(Router* router) {
  router->RegisterTask(std::make_unique<DrainTask>(this, home_core_));
}

void ToDevice::BindTelemetry(telemetry::MetricRegistry* registry,
                             telemetry::PathTracer* tracer, const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (telemetry::Enabled() && registry != nullptr) {
    // Keyed by egress port when labeled (one distribution per port, as the
    // paper's per-port latency story wants), else by element name.
    const std::string key = port_label_ >= 0 ? Format("lat/port%d", port_label_)
                                             : "lat/" + name();
    tele_lat_ = registry->GetLatencyHistogram(prefix + key);
    ns_per_cycle_q32_ = static_cast<uint64_t>(
        (1e9 / telemetry::CyclesPerSecond()) * 4294967296.0);  // Q32.32
  }
}

void ToDevice::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  handlers->AddRead(name() + ".latency", [this] {
    if (tele_lat_ == nullptr) {
      return std::string("count=0");
    }
    telemetry::LatencySnapshot s = tele_lat_->Snapshot();
    return Format("count=%llu p50_us=%.2f p90_us=%.2f p99_us=%.2f p999_us=%.2f",
                  static_cast<unsigned long long>(s.count), s.PercentileNs(50) / 1e3,
                  s.PercentileNs(90) / 1e3, s.PercentileNs(99) / 1e3,
                  s.PercentileNs(99.9) / 1e3);
  });
}

void ToDevice::TransmitBatch(PacketBatch& batch) {
  if (tele_lat_ != nullptr) {
    // Egress readout of the ingress stamp. One cycle read covers the
    // burst; the per-packet cost is a subtract, a fixed-point
    // multiply-shift, and a wait-free log-bucket increment.
    const uint64_t now_cycles = telemetry::ReadCycles();
    for (Packet* p : batch) {
      if (p->ingress_cycles() != 0) {
        uint64_t dc = now_cycles - p->ingress_cycles();
        tele_lat_->ObserveNs(static_cast<uint64_t>(
            (static_cast<__uint128_t>(dc) * ns_per_cycle_q32_) >> 32));
      }
    }
  }
  if (tracer() != nullptr) {
    const double now = telemetry::NowSeconds();
    const telemetry::ScopeId here = profile_scope();
    for (Packet* p : batch) {
      if (p->trace_handle() != 0) {
        tracer()->EndTrace(p->trace_handle(), here, now);
        p->set_trace_handle(0);
      }
    }
  }
  uint64_t ok = 0;
  [[maybe_unused]] uint64_t ok_bytes = 0;
  {
#if defined(RB_PROFILE) && RB_PROFILE
    // The tx half of the driver batch loop (rx is netdev/rx_poll) — one
    // scope entry per transmit burst.
    static const telemetry::ScopeId kTxScope = telemetry::InternScopeName("netdev/tx");
    RB_PROF_SCOPE(kTxScope);
#endif
    for (Packet* p : batch) {
      [[maybe_unused]] uint32_t bytes = p->length();
      // Transmit() owns the packet either way; failures are counted as tx
      // drops by the NIC.
      if (port_->Transmit(tx_queue_, p)) {
        ok++;
        ok_bytes += bytes;
      }
    }
    RB_PROF_WORK(ok, ok_bytes);
  }
  sent_ += ok;
  CountPacketsOut(ok);
  batch.Clear();
}

void ToDevice::PushBatch(int /*port*/, PacketBatch& batch) { TransmitBatch(batch); }

size_t ToDevice::RunOnce() {
  PacketBatch batch;
  size_t moved = InputBatch(0, &batch, burst_);
  if (moved == 0) {
    return 0;
  }
  TransmitBatch(batch);
  return moved;
}

}  // namespace rb
