#include "sim/protocol_monitor.hpp"

#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/trace_session.hpp"

namespace mte::sim {

std::string ProtocolViolation::format() const {
  std::ostringstream os;
  os << code << " cycle " << cycle << " channel '" << channel << "'";
  if (thread >= 0) os << " thread " << thread;
  os << " [component '" << component << "' port '" << port << "']: " << message;
  return os.str();
}

void ProtocolMonitor::watch(const ChannelRow& row) {
  if (!by_name_.emplace(row.name, channels_.size()).second) {
    throw SimulationError("ProtocolMonitor: channel '" + row.name +
                          "' is already watched");
  }
  WatchedChannel ch;
  ch.row = &row;
  ch.prev.assign(row.threads(), ThreadState{});
  channels_.push_back(std::move(ch));
}

void ProtocolMonitor::watch_conservation(const std::string& component,
                                         const std::string& in_channel,
                                         const std::string& out_channel,
                                         std::function<int()> occupancy) {
  const auto in_it = by_name_.find(in_channel);
  const auto out_it = by_name_.find(out_channel);
  if (in_it == by_name_.end() || out_it == by_name_.end()) {
    throw SimulationError(
        "ProtocolMonitor: watch_conservation('" + component +
        "') requires both '" + in_channel + "' and '" + out_channel +
        "' to be watched first");
  }
  ConservationWatch w;
  w.component = component;
  w.in_index = in_it->second;
  w.out_index = out_it->second;
  w.occupancy = std::move(occupancy);
  conservation_.push_back(std::move(w));
}

void ProtocolMonitor::record(const WatchedChannel& ch, const char* code,
                             int thread, Cycle cycle, std::string message) {
  if (violations_.size() >= max_violations_) {
    ++dropped_violations_;
    return;
  }
  ProtocolViolation v;
  v.code = code;
  v.channel = ch.row->name;
  v.component = ch.row->producer;
  v.port = ch.row->producer_port;
  v.thread = thread;
  v.cycle = cycle;
  v.message = std::move(message);
  violations_.push_back(std::move(v));
}

void ProtocolMonitor::on_cycle(Cycle now) {
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    WatchedChannel& ch = channels_[ci];
    const ChannelRow& row = *ch.row;
    const std::uint64_t data = row.data->get();
    ch.fired_now = 0;
    std::size_t valid_count = 0;
    int first_valid = -1;
    int extra_valid = -1;
    for (std::size_t t = 0; t < row.threads(); ++t) {
      const bool v = row.valid[t].get();
      const bool r = row.ready[t].get();
      const bool fired = v && r;
      const int thread = row.multithreaded() ? static_cast<int>(t) : -1;
      if (v) {
        ++valid_count;
        if (first_valid < 0) {
          first_valid = static_cast<int>(t);
        } else if (extra_valid < 0) {
          extra_valid = static_cast<int>(t);
        }
      }
      if (ch.has_prev) {
        const ThreadState& p = ch.prev[t];
        if (p.valid && !p.ready) {  // a transfer was pending last cycle
          if (!v) {
            // Only a contract violation where valid derives from buffer
            // occupancy; rate-gated sources and arbitrated MEB outputs
            // may legally withdraw the offer.
            if (row.persistent_valid) {
              record(ch, "MTE101", thread, now,
                     "valid retracted while stalled (producer '" +
                         row.producer +
                         "' is an elastic buffer whose valid only drops by a "
                         "completed transfer)");
            }
          } else if (data != p.data) {
            std::ostringstream os;
            os << "data changed while stalled (0x" << std::hex << p.data
               << " -> 0x" << data << "); the word must be stable until the "
               << "transfer is accepted";
            record(ch, "MTE102", thread, now, os.str());
          }
        }
        if (row.persistent_ready && p.ready && !p.fired && !r) {
          record(ch, "MTE103", thread, now,
                 "ready retracted without a transfer (consumer '" +
                     row.consumer +
                     "' is an elastic buffer whose can_accept only drops by "
                     "accepting)");
        }
      }
      if (fired) {
        ++ch.fired_now;
        ch.ever_fired = true;
        ch.last_fire = now;
        ++transfers_;
        if (tail_.size() >= tail_capacity_) tail_.pop_front();
        tail_.push_back(TraceEvent{now, ci, thread, data});
      }
      ch.prev[t].valid = v;
      ch.prev[t].ready = r;
      ch.prev[t].fired = fired;
      ch.prev[t].data = data;
    }
    if (row.multithreaded() && valid_count > 1) {
      std::ostringstream os;
      os << valid_count << " threads assert valid in the same cycle (threads "
         << first_valid << " and " << extra_valid
         << "); an MT channel carries at most one active thread";
      record(ch, "MTE104", extra_valid, now, os.str());
    }
    ch.has_prev = true;
  }

  for (ConservationWatch& w : conservation_) {
    const int occupancy = w.occupancy();
    if (w.has_prev) {
      const int expected = static_cast<int>(w.prev_in_fired) -
                           static_cast<int>(w.prev_out_fired);
      const int delta = occupancy - w.prev_occupancy;
      if (delta != expected) {
        const WatchedChannel& out = channels_[w.out_index];
        std::ostringstream os;
        os << "token conservation violated across '" << w.component
           << "': occupancy changed by " << delta << " but saw "
           << w.prev_in_fired << " input and " << w.prev_out_fired
           << " output transfer(s) last cycle";
        record(out, "MTE105", -1, now, os.str());
      }
    }
    w.prev_occupancy = occupancy;
    w.prev_in_fired = channels_[w.in_index].fired_now;
    w.prev_out_fired = channels_[w.out_index].fired_now;
    w.has_prev = true;
  }
}

void ProtocolMonitor::reset() {
  for (WatchedChannel& ch : channels_) {
    ch.has_prev = false;
    ch.prev.assign(ch.row->threads(), ThreadState{});
    ch.fired_now = 0;
    ch.ever_fired = false;
    ch.last_fire = 0;
  }
  for (ConservationWatch& w : conservation_) w.has_prev = false;
  violations_.clear();
  dropped_violations_ = 0;
  transfers_ = 0;
  tail_.clear();
}

std::string ProtocolMonitor::report() const {
  std::ostringstream os;
  for (const ProtocolViolation& v : violations_) os << v.format() << '\n';
  if (dropped_violations_ != 0) {
    os << "(+" << dropped_violations_ << " further violations dropped)\n";
  }
  return os.str();
}

std::string ProtocolMonitor::diagnose_stall(Cycle now, Cycle idle) const {
  // The wait-for graph: components become dense ids, and every waiting
  // channel is one edge, in channel order.
  struct WaitEdge {
    std::size_t channel;  // index into channels_
    std::size_t from;     // waiting component
    std::size_t to;       // component it waits on
    bool starved;         // else backpressured
  };
  std::unordered_map<std::string_view, std::size_t> ids;
  const auto id_of = [&ids](const std::string& node) {
    return ids.emplace(node, ids.size()).first->second;
  };
  std::vector<WaitEdge> edges;
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    const ChannelRow& row = *channels_[ci].row;
    bool any_valid = false;
    bool any_stalled = false;
    for (std::size_t t = 0; t < row.threads(); ++t) {
      const bool v = row.valid[t].get();
      any_valid |= v;
      any_stalled |= v && !row.ready[t].get();
    }
    if (any_valid && !any_stalled) continue;  // valid && ready: about to fire
    const std::size_t producer = id_of(row.producer);
    const std::size_t consumer = id_of(row.consumer);
    if (any_stalled) {
      // Backpressure: the producer holds a token the consumer won't take.
      edges.push_back(WaitEdge{ci, producer, consumer, false});
    } else {
      // Starvation: the consumer is waiting for the producer to supply.
      edges.push_back(WaitEdge{ci, consumer, producer, true});
    }
  }
  std::vector<std::vector<std::size_t>> out_edges(ids.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    out_edges[edges[ei].from].push_back(ei);
  }

  std::ostringstream os;
  os << "no-progress watchdog: no transfer on " << channels_.size()
     << " watched channel(s) for " << idle << " cycles (cycle " << now
     << ")\n";

  auto describe = [&](const WaitEdge& e) {
    const WatchedChannel& ch = channels_[e.channel];
    const ChannelRow& row = *ch.row;
    std::ostringstream line;
    line << "  '" << (e.starved ? row.consumer : row.producer) << "' waits for '"
         << (e.starved ? row.producer : row.consumer) << "' (channel '"
         << row.name << "' " << (e.starved ? "starved" : "backpressured")
         << ", ";
    if (ch.ever_fired) {
      line << "last transfer at cycle " << ch.last_fire;
    } else {
      line << "never fired";
    }
    line << ")";
    return line.str();
  };

  // DFS for a wait cycle over the component graph: roots and out-edges in
  // edge order, on an explicit stack so a long stalled chain cannot
  // overflow the call stack.
  struct Frame {
    std::size_t node;
    std::size_t in_edge;  // the edge that reached `node` (unused at a root)
    std::size_t next;     // position in out_edges[node]
  };
  std::vector<char> state(ids.size(), 0);  // 0 unvisited, 1 on path, 2 done
  std::vector<Frame> frames;               // the current path
  bool found = false;
  for (std::size_t root = 0; root < edges.size() && !found; ++root) {
    if (state[edges[root].from] != 0) continue;
    state[edges[root].from] = 1;
    frames.push_back(Frame{edges[root].from, 0, 0});
    while (!frames.empty() && !found) {
      Frame& f = frames.back();
      if (f.next == out_edges[f.node].size()) {
        state[f.node] = 2;
        frames.pop_back();
        continue;
      }
      const std::size_t ei = out_edges[f.node][f.next++];
      const std::size_t next = edges[ei].to;
      if (state[next] == 1) {
        // Found a cycle: emit the path suffix starting at `next`, closed
        // by edge ei.
        os << "wait-for cycle detected:\n";
        bool in_cycle = false;
        for (std::size_t i = 1; i < frames.size(); ++i) {
          const WaitEdge& pe = edges[frames[i].in_edge];
          if (pe.from == next) in_cycle = true;
          if (in_cycle) os << describe(pe) << '\n';
        }
        os << describe(edges[ei]) << '\n';
        found = true;
      } else if (state[next] == 0) {
        state[next] = 1;
        frames.push_back(Frame{next, ei, 0});
      }
    }
  }
  if (!found) {
    os << "no wait-for cycle; waiting edges:\n";
    std::size_t shown = 0;
    for (const WaitEdge& e : edges) {
      if (shown++ >= 16) {
        os << "  (+" << edges.size() - 16 << " more)\n";
        break;
      }
      os << describe(e) << '\n';
    }
    if (edges.empty()) os << "  (none: all watched channels are firing)\n";
  }
  return os.str();
}

void ProtocolMonitor::export_trace_tail(obs::TraceSession& trace) const {
  for (const TraceEvent& e : tail_) {
    trace.add_transfer(e.cycle, channels_[e.channel].row->name, e.thread, e.data);
  }
}

}  // namespace mte::sim
