#include "src/fleet/network.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/logging.h"

namespace gs {
namespace fleet {

NetworkModel::NetworkModel(std::vector<EventLoop*> loops, Options options)
    : loops_(std::move(loops)) {
  CHECK_GE(loops_.size(), 2u) << "a network needs at least two nodes";
  CHECK_GT(options.default_latency, 0) << "zero latency breaks the lookahead barrier";
  CHECK_GT(options.default_bytes_per_ns, 0.0);
  const int n = num_nodes();
  const size_t pairs = static_cast<size_t>(n) * n;
  links_.assign(pairs, Link{options.default_latency, options.default_bytes_per_ns});
  busy_.assign(pairs, 0);
  active_words_ = (static_cast<size_t>(n) + 63) / 64;
  for (int parity = 0; parity < 2; ++parity) {
    lanes_[parity].assign(pairs, Lane{});
    active_[parity] = std::vector<std::atomic<uint64_t>>(n * active_words_);
  }
  outbox_.resize(n);
  inbox_.resize(n);
  linked_.assign(n, 1);
  min_latency_ = options.default_latency;
}

void NetworkModel::SetLink(int from, int to, Duration latency, double bytes_per_ns) {
  CHECK_GE(from, 0);
  CHECK_LT(from, num_nodes());
  CHECK_GE(to, 0);
  CHECK_LT(to, num_nodes());
  CHECK_NE(from, to);
  CHECK_GT(latency, 0) << "zero latency breaks the lookahead barrier";
  CHECK_GT(bytes_per_ns, 0.0);
  link(from, to) = Link{latency, bytes_per_ns};
  min_latency_ = std::min(min_latency_, latency);
}

void NetworkModel::Enqueue(int src, int dst, int64_t bytes, Time send_time,
                           InlineCallback&& fn) {
  const Link& l = link(src, dst);
  const Duration transmit =
      static_cast<Duration>(static_cast<double>(bytes) / l.bytes_per_ns);
  Time& busy = busy_until(src, dst);
  const Time depart = std::max(send_time, busy) + transmit;
  busy = depart;
  const Time deliver = depart + l.latency;

  const int parity = static_cast<int>(epoch_ & 1);
  Outbox::Buffer& buffer = outbox_[src].buffers[parity];
  if (buffer.epoch != epoch_) {
    // Two epochs old: every destination merged it during the last pass.
    buffer.msgs.clear();
    buffer.epoch = epoch_;
  }
  const auto index = static_cast<uint32_t>(buffer.msgs.size());
  Lane& lane = this->lane(parity, src, dst);
  if (lane.head == kNone) {
    lane.head = index;
    lane.epoch = epoch_;
    active_row(parity, dst)[src / 64].fetch_or(uint64_t{1} << (src % 64),
                                               std::memory_order_relaxed);
  } else {
    CHECK_EQ(lane.epoch, epoch_) << "destination " << dst
                                 << " did not merge its lanes since their epoch closed";
    Message& tail = buffer.msgs[lane.tail];
    // The merge relies on it; SetLink after traffic could break it.
    CHECK_LE(tail.deliver, deliver) << "lane out of delivery order";
    tail.next = index;
  }
  lane.tail = index;
  buffer.msgs.emplace_back(deliver, kNone, std::move(fn));
}

void NetworkModel::Send(int src, int dst, int64_t bytes, InlineCallback&& deliver) {
  CHECK_NE(src, dst);
  if (!linked_[src] || !linked_[dst]) {
    Outbox& out = outbox_[src];
    ++out.parked_total;
    out.parked.emplace_back(dst, bytes, std::move(deliver));
    return;
  }
  Enqueue(src, dst, bytes, loops_[src]->now(), std::move(deliver));
}

void NetworkModel::EndEpoch() { ++epoch_; }

void NetworkModel::DeliverInbound(int dst) {
  const int parity = static_cast<int>((epoch_ + 1) & 1);  // the closed epoch
  Inbox& in = inbox_[dst];
  std::vector<Inbox::Cursor>& heads = in.heads;
  std::atomic<uint64_t>* row = active_row(parity, dst);
  for (size_t w = 0; w < active_words_; ++w) {
    uint64_t bits = row[w].load(std::memory_order_relaxed);
    if (bits == 0) {
      continue;
    }
    row[w].store(0, std::memory_order_relaxed);
    if (heads.capacity() == 0) {
      heads.reserve(num_nodes());  // at most one cursor per source
    }
    for (; bits != 0; bits &= bits - 1) {
      const int src = static_cast<int>(w * 64) + std::countr_zero(bits);
      Lane& lane = this->lane(parity, src, dst);
      const std::vector<Message>& msgs = outbox_[src].buffers[parity].msgs;
      heads.push_back({msgs[lane.head].deliver, src, lane.head});
      lane = Lane{};
    }
  }
  // K-way merge of the sorted lanes: a min-heap of lane heads on
  // (deliver, src); within a lane, seq order is chain order.
  const auto later = [](const Inbox::Cursor& a, const Inbox::Cursor& b) {
    return a.deliver != b.deliver ? a.deliver > b.deliver : a.src > b.src;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  EventLoop* loop = loops_[dst];
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Inbox::Cursor& head = heads.back();
    std::vector<Message>& msgs = outbox_[head.src].buffers[parity].msgs;
    Message& m = msgs[head.pos];
    loop->ScheduleAt(m.deliver, std::move(m.fn));
    ++in.delivered;
    if (m.next == kNone) {
      heads.pop_back();
    } else {
      head.pos = m.next;
      head.deliver = msgs[m.next].deliver;
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
}

void NetworkModel::FlushAtBarrier() {
  EndEpoch();
  for (int dst = 0; dst < num_nodes(); ++dst) {
    DeliverInbound(dst);
  }
}

void NetworkModel::SetNodeLinked(int node, bool linked, Time now) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  linked_[node] = linked ? 1 : 0;
  if (!linked) {
    return;
  }
  // Heal: retransmit parked messages whose endpoints are both up, oldest
  // first per source, sources in index order — deterministic by construction.
  for (int src = 0; src < num_nodes(); ++src) {
    std::vector<Parked>& parked = outbox_[src].parked;
    size_t kept = 0;
    for (Parked& p : parked) {
      if (linked_[src] && linked_[p.dst]) {
        Enqueue(src, p.dst, p.bytes, now, std::move(p.fn));
      } else {
        parked[kept++] = std::move(p);
      }
    }
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(kept), parked.end());
  }
}

int64_t NetworkModel::delivered() const {
  int64_t total = 0;
  for (const Inbox& in : inbox_) {
    total += in.delivered;
  }
  return total;
}

int64_t NetworkModel::parked() const {
  int64_t total = 0;
  for (const Outbox& out : outbox_) {
    total += out.parked_total;
  }
  return total;
}

int64_t NetworkModel::parked_now() const {
  int64_t total = 0;
  for (const Outbox& out : outbox_) {
    total += static_cast<int64_t>(out.parked.size());
  }
  return total;
}

}  // namespace fleet
}  // namespace gs
