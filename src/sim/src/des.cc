#include "nfv/sim/des.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "nfv/common/error.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"

namespace nfv::sim {

void SimNetwork::validate() const {
  NFV_REQUIRE(!stations.empty());
  for (const Station& s : stations) NFV_REQUIRE(s.service_rate > 0.0);
  NFV_REQUIRE(!flows.empty());
  for (const Flow& f : flows) {
    NFV_REQUIRE(f.rate > 0.0);
    NFV_REQUIRE(f.delivery_prob > 0.0 && f.delivery_prob <= 1.0);
    NFV_REQUIRE(!f.path.empty());
    for (const std::uint32_t s : f.path) NFV_REQUIRE(s < stations.size());
    NFV_REQUIRE(f.hop_latency.empty() ||
                f.hop_latency.size() == f.path.size() + 1);
  }
}

namespace {

// In-flight packet.  Packets are pooled and recycled via a free list so
// long runs do not fragment the heap.
struct Packet {
  std::uint32_t flow = 0;
  std::uint32_t hop = 0;          // index into flow.path
  double inject_time = 0.0;       // first external injection
  double visit_arrival = 0.0;     // arrival at current station's queue
};

enum class EventType : std::uint8_t {
  kSourceArrival,     // external injection of a new packet for `flow`
  kStationArrival,    // packet reaches a station queue
  kServiceComplete,   // station finishes the packet at its head
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
  EventType type{};
  std::uint32_t flow = 0;     // kSourceArrival
  std::uint32_t station = 0;  // kStationArrival / kServiceComplete
  std::uint32_t packet = 0;   // pool index (kStationArrival)

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

struct StationState {
  std::deque<std::uint32_t> queue;  // waiting packet pool indices
  bool busy = false;
  std::uint32_t in_service = 0;     // pool index, valid when busy
  double busy_since = 0.0;
  double busy_accum = 0.0;          // within measurement window
  // Occupancy area integration for the time-averaged N of Little's law.
  std::uint32_t occupancy = 0;
  double occupancy_change = 0.0;    // time of the last occupancy change
  double occupancy_area = 0.0;      // within measurement window
};

class Engine {
 public:
  Engine(const SimNetwork& network, const SimConfig& config)
      : net_(network), cfg_(config), rng_(config.seed) {
    NFV_REQUIRE(cfg_.duration > cfg_.warmup);
    NFV_REQUIRE(cfg_.warmup >= 0.0);
    stations_.resize(net_.stations.size());
    result_.stations.resize(net_.stations.size());
    result_.flows.resize(net_.flows.size());
    // Pre-resolve telemetry handles once; the event loop then pays only a
    // null check per sample instead of a registry lookup.
    if (obs::MetricsRegistry* reg = obs::registry()) {
      queue_depth_ = &reg->histogram("sim.des.queue_depth", 0.0, 64.0, 64);
    }
  }

  SimResult run() {
    const obs::ScopedSpan span("sim.des.run");
    for (std::uint32_t f = 0; f < net_.flows.size(); ++f) {
      schedule_source(f, rng_.exponential(net_.flows[f].rate));
    }
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      if (ev.time > cfg_.duration) break;
      ++result_.events_processed;
      now_ = ev.time;
      switch (ev.type) {
        case EventType::kSourceArrival: handle_source(ev); break;
        case EventType::kStationArrival: handle_station_arrival(ev); break;
        case EventType::kServiceComplete: handle_service_complete(ev); break;
      }
    }
    finalize();
    return std::move(result_);
  }

 private:
  void push(Event ev) {
    ev.seq = next_seq_++;
    events_.push(ev);
  }

  void schedule_source(std::uint32_t flow, double delay) {
    Event ev;
    ev.time = now_ + delay;
    ev.type = EventType::kSourceArrival;
    ev.flow = flow;
    push(ev);
  }

  std::uint32_t alloc_packet() {
    if (!free_packets_.empty()) {
      const std::uint32_t p = free_packets_.back();
      free_packets_.pop_back();
      return p;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void send_to_hop(std::uint32_t packet, std::uint32_t hop) {
    Packet& pkt = pool_[packet];
    pkt.hop = hop;
    const Flow& flow = net_.flows[pkt.flow];
    const double latency =
        flow.hop_latency.empty() ? 0.0 : flow.hop_latency[hop];
    Event ev;
    ev.time = now_ + latency;
    ev.type = EventType::kStationArrival;
    ev.station = flow.path[hop];
    ev.packet = packet;
    push(ev);
  }

  void handle_source(const Event& ev) {
    const Flow& flow = net_.flows[ev.flow];
    // Next external arrival of this Poisson source.
    schedule_source(ev.flow, rng_.exponential(flow.rate));
    if (in_window()) ++result_.flows[ev.flow].generated;
    const std::uint32_t packet = alloc_packet();
    pool_[packet] = Packet{ev.flow, 0, now_, 0.0};
    send_to_hop(packet, 0);
  }

  void handle_station_arrival(const Event& ev) {
    StationState& st = stations_[ev.station];
    pool_[ev.packet].visit_arrival = now_;
    if (queue_depth_ != nullptr) {
      queue_depth_->observe(
          static_cast<double>(st.queue.size() + (st.busy ? 1u : 0u)));
    }
    change_occupancy(ev.station, +1);
    if (st.busy) {
      st.queue.push_back(ev.packet);
      return;
    }
    begin_service(ev.station, ev.packet);
  }

  void begin_service(std::uint32_t station, std::uint32_t packet) {
    StationState& st = stations_[station];
    st.busy = true;
    st.in_service = packet;
    st.busy_since = now_;
    Event done;
    done.time = now_ + rng_.exponential(net_.stations[station].service_rate);
    done.type = EventType::kServiceComplete;
    done.station = station;
    done.packet = packet;
    push(done);
  }

  void handle_service_complete(const Event& ev) {
    StationState& st = stations_[ev.station];
    NFV_CHECK(st.busy && st.in_service == ev.packet);
    Packet& pkt = pool_[ev.packet];
    // Station accounting (only post-warmup samples count).
    if (in_window()) {
      StationResult& sr = result_.stations[ev.station];
      sr.response.add(now_ - pkt.visit_arrival);
      ++sr.visits;
    }
    accumulate_busy(ev.station);
    change_occupancy(ev.station, -1);
    st.busy = false;
    if (!st.queue.empty()) {
      const std::uint32_t next = st.queue.front();
      st.queue.pop_front();
      begin_service(ev.station, next);
    }
    route_onward(ev.packet);
  }

  /// Integrates the occupancy area up to `now_` (clipped to the window)
  /// and applies `delta` to the station's occupancy.
  void change_occupancy(std::uint32_t station, int delta) {
    StationState& st = stations_[station];
    const double from = std::max(st.occupancy_change, cfg_.warmup);
    const double to = std::min(now_, cfg_.duration);
    if (to > from) {
      st.occupancy_area += st.occupancy * (to - from);
    }
    st.occupancy_change = now_;
    st.occupancy = static_cast<std::uint32_t>(
        static_cast<int>(st.occupancy) + delta);
  }

  void accumulate_busy(std::uint32_t station) {
    StationState& st = stations_[station];
    // Clip the busy interval to the measurement window.
    const double from = std::max(st.busy_since, cfg_.warmup);
    const double to = std::min(now_, cfg_.duration);
    if (to > from) st.busy_accum += to - from;
  }

  void route_onward(std::uint32_t packet) {
    Packet& pkt = pool_[packet];
    const Flow& flow = net_.flows[pkt.flow];
    if (pkt.hop + 1 < flow.path.size()) {
      send_to_hop(packet, pkt.hop + 1);
      return;
    }
    // Past the last station: final hop latency, then the delivery trial.
    const double final_latency =
        flow.hop_latency.empty() ? 0.0 : flow.hop_latency.back();
    const double arrival_at_destination = now_ + final_latency;
    if (rng_.chance(flow.delivery_prob)) {
      if (pkt.inject_time >= cfg_.warmup &&
          arrival_at_destination <= cfg_.duration) {
        FlowResult& fr = result_.flows[pkt.flow];
        const double sojourn = arrival_at_destination - pkt.inject_time;
        fr.end_to_end.add(sojourn);
        ++fr.delivered;
        if (cfg_.keep_samples) fr.samples.add(sojourn);
      }
      free_packets_.push_back(packet);
      return;
    }
    // NACK: retransmit from the source with instantaneous feedback, the
    // Jackson model of Fig. 3.
    if (in_window()) ++result_.flows[pkt.flow].retransmissions;
    Event retry;
    retry.time = arrival_at_destination;
    retry.type = EventType::kStationArrival;
    retry.station = flow.path[0];
    retry.packet = packet;
    pkt.hop = 0;
    push(retry);
  }

  [[nodiscard]] bool in_window() const { return now_ >= cfg_.warmup; }

  void finalize() {
    result_.measured_window = cfg_.duration - cfg_.warmup;
    now_ = cfg_.duration;
    for (std::uint32_t s = 0; s < stations_.size(); ++s) {
      if (stations_[s].busy) accumulate_busy(s);
      change_occupancy(s, 0);  // close the last occupancy interval
      result_.stations[s].utilization =
          stations_[s].busy_accum / result_.measured_window;
      result_.stations[s].arrival_rate =
          static_cast<double>(result_.stations[s].visits) /
          result_.measured_window;
      result_.stations[s].mean_in_system =
          stations_[s].occupancy_area / result_.measured_window;
    }
    flush_telemetry();
  }

  /// Counter totals are flushed once per run instead of bumped per event —
  /// the event loop stays allocation- and atomic-free with obs disabled.
  void flush_telemetry() const {
    if (obs::registry() == nullptr) return;
    obs::count("sim.des.runs");
    obs::count("sim.des.events", result_.events_processed);
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t retransmissions = 0;
    for (const FlowResult& f : result_.flows) {
      generated += f.generated;
      delivered += f.delivered;
      retransmissions += f.retransmissions;
    }
    obs::count("sim.des.generated", generated);
    obs::count("sim.des.delivered", delivered);
    obs::count("sim.des.retransmissions", retransmissions);
  }

  const SimNetwork& net_;
  const SimConfig& cfg_;
  Rng rng_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<StationState> stations_;
  std::vector<Packet> pool_;
  std::vector<std::uint32_t> free_packets_;
  SimResult result_;
  obs::HistogramMetric* queue_depth_ = nullptr;  // null when obs disabled
};

}  // namespace

SimResult simulate(const SimNetwork& network, const SimConfig& config) {
  network.validate();
  Engine engine(network, config);
  return engine.run();
}

SimResult simulate_mm1(double arrival_rate, double service_rate,
                       const SimConfig& config) {
  SimNetwork net;
  net.stations.push_back(Station{service_rate});
  Flow flow;
  flow.rate = arrival_rate;
  flow.delivery_prob = 1.0;
  flow.path = {0};
  net.flows.push_back(std::move(flow));
  return simulate(net, config);
}

}  // namespace nfv::sim
