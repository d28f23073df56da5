// Deterministic network model for fleet simulations.
//
// Nodes are event loops (M machine loops + the front-end loop); a message is
// a callback that runs on the destination loop after a per-link delay of
// queueing + transmit (bytes / bandwidth, serialized per directed link) +
// propagation latency.
//
// Cross-loop delivery uses conservative-lookahead barriers (classic parallel
// discrete-event simulation): the cluster advances all loops in lockstep
// epochs no longer than the minimum link latency, so a message sent during
// an epoch always delivers after the epoch's end barrier.
//
// Lanes. A message is an InlineCallback appended to its source's send
// buffer and chained into the lane of its (src, dst) pair; nothing is
// heap-allocated per message once the buffers have grown to the traffic.
// Only the source's loop appends, so epochs can run on a thread pool. A
// directed link serializes departures and has a fixed latency, so every lane
// is already in (deliver_time, seq) order, seq being the source's send order.
//
// Parity buffers. Send buffers and lanes are double-buffered by epoch
// parity. EndEpoch() (at the barrier) flips the parity: the finished epoch's
// lanes wait for their destinations, and the next epoch's sends go to the
// other buffer. At the start of its next pass, node d calls DeliverInbound(d)
// on its own thread, which k-way-merges d's non-empty lanes by (deliver_time,
// src, seq) and schedules them into d's loop. That is the canonical
// (deliver_time, dst, src, seq) order restricted to one destination, and one
// destination is all a loop can observe, so no global sort is needed and the
// schedule is byte-identical for any job count. Only d's own thread touches
// d's loop, and the merge never reads a buffer that senders still append to. A
// source reuses a buffer from its first send two epochs later, by which time
// every destination has merged it.
//
// Partitions: SetNodeLinked(node, false) parks every subsequent message to
// or from the node (messages already on the wire still deliver). Healing
// re-sends parked messages in (src, seq) order from the heal time, into the
// buffer of the epoch that follows the barrier, where they merge with that
// epoch's sends. Link state may only change at a barrier, so senders never
// race the flag.
#ifndef GHOST_SIM_SRC_FLEET_NETWORK_H_
#define GHOST_SIM_SRC_FLEET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/base/inline_callback.h"
#include "src/base/time.h"
#include "src/sim/event_loop.h"

namespace gs {
namespace fleet {

class NetworkModel {
 public:
  struct Options {
    Duration default_latency = Microseconds(50);
    // 10 Gbps = 1.25 bytes/ns.
    double default_bytes_per_ns = 1.25;
  };

  // `loops[i]` is node i's event loop; borrowed, must outlive the model.
  NetworkModel(std::vector<EventLoop*> loops, Options options);

  // Per-directed-link override; by default every link uses the defaults.
  // Call before the first Send: a lane relies on its link's fixed latency.
  void SetLink(int from, int to, Duration latency, double bytes_per_ns);

  // Queue `deliver` to run on node `dst`'s loop. Must be called from node
  // `src`'s loop (during an epoch) or at a barrier. If either endpoint is
  // unlinked the message is parked until both are linked again.
  void Send(int src, int dst, int64_t bytes, InlineCallback&& deliver);

  // Barrier step: closes the epoch. Messages sent so far wait for their
  // destination's DeliverInbound; later sends (and heals) go to the other
  // parity buffer. Every node must have run DeliverInbound since the
  // previous EndEpoch.
  void EndEpoch();

  // Schedules every message of the last closed epoch bound for `dst` into
  // dst's loop in canonical order. Call once per epoch, from the thread that
  // advances dst's loop, before advancing it; concurrent calls for distinct
  // nodes and concurrent Sends are safe.
  void DeliverInbound(int dst);

  // Serial barrier flush: EndEpoch, then DeliverInbound on every node.
  void FlushAtBarrier();

  // Partition / heal node `node` at barrier time `now`. Healing re-sends the
  // parked messages whose endpoints are now both linked.
  void SetNodeLinked(int node, bool linked, Time now);
  bool node_linked(int node) const { return linked_[node] != 0; }

  Duration min_latency() const { return min_latency_; }
  // Messages scheduled into a destination loop so far.
  int64_t delivered() const;
  // Cumulative count of messages that hit a down link and were parked
  // (whether or not they were later retransmitted).
  int64_t parked() const;
  // Messages parked right now, awaiting a heal.
  int64_t parked_now() const;

 private:
  struct Link {
    Duration latency;
    double bytes_per_ns;
  };
  static constexpr uint32_t kNone = ~uint32_t{0};
  struct Message {
    Time deliver;
    uint32_t next;  // next message of the same lane in the buffer, or kNone
    InlineCallback fn;
  };
  struct Parked {
    int dst;
    int64_t bytes;
    InlineCallback fn;
  };
  // First and last message of one lane in its source's buffer.
  struct Lane {
    uint32_t head = kNone;
    uint32_t tail = kNone;
    int64_t epoch = -1;  // the epoch whose sends the lane holds
  };
  // State only node `src` writes mid-epoch; padded so that sources running
  // on different threads never share a cache line.
  struct alignas(64) Outbox {
    // Padded: destinations read one parity while the source fills the other.
    struct alignas(64) Buffer {
      int64_t epoch = -1;  // the epoch whose sends `msgs` holds
      std::vector<Message> msgs;
    };
    Buffer buffers[2];  // by epoch parity
    // Cumulative parks: sources park concurrently during an epoch.
    int64_t parked_total = 0;
    std::vector<Parked> parked;
  };
  // State only node `dst`'s merge touches.
  struct alignas(64) Inbox {
    int64_t delivered = 0;
    // Merge scratch: one cursor per non-empty lane.
    struct Cursor {
      Time deliver;
      int src;
      uint32_t pos;
    };
    std::vector<Cursor> heads;
  };

  int num_nodes() const { return static_cast<int>(loops_.size()); }
  Link& link(int from, int to) { return links_[from * num_nodes() + to]; }
  // Serialization point of the directed link: when its last transmit ends.
  Time& busy_until(int from, int to) { return busy_[from * num_nodes() + to]; }
  // Lane of (src, dst) for epochs of parity `parity`. Indexed by source
  // first, so a sender's lanes are contiguous.
  Lane& lane(int parity, int src, int dst) {
    return lanes_[parity][src * num_nodes() + dst];
  }
  // Bit `src` of dst's word row marks lane (src, dst) non-empty, so a merge
  // costs the traffic, not the node count.
  std::atomic<uint64_t>* active_row(int parity, int dst) {
    return &active_[parity][static_cast<size_t>(dst) * active_words_];
  }
  void Enqueue(int src, int dst, int64_t bytes, Time send_time, InlineCallback&& fn);

  std::vector<EventLoop*> loops_;
  std::vector<Link> links_;
  std::vector<Time> busy_;
  Duration min_latency_;
  // Epochs closed so far; sends go to buffers of parity epoch_ & 1, and the
  // other parity holds the last closed epoch.
  int64_t epoch_ = 0;
  std::vector<Lane> lanes_[2];
  size_t active_words_;
  std::vector<std::atomic<uint64_t>> active_[2];
  std::vector<Outbox> outbox_;
  std::vector<Inbox> inbox_;
  std::vector<char> linked_;
};

}  // namespace fleet
}  // namespace gs

#endif  // GHOST_SIM_SRC_FLEET_NETWORK_H_
