#include "repl/child_replicator.h"

#include <poll.h>

#include <algorithm>
#include <optional>

#include "codec/smbz1.h"
#include "common/macros.h"
#include "fault/failpoints.h"
#include "telemetry/metrics_registry.h"

namespace smb::repl {
namespace {

// Sorted dirty set: delta payloads are deterministic for a given dirty
// set, which keeps the chaos suite's oracle comparisons byte-stable.
std::vector<uint64_t> SortedFlows(const std::unordered_set<uint64_t>& set) {
  std::vector<uint64_t> flows(set.begin(), set.end());
  std::sort(flows.begin(), flows.end());
  return flows;
}

}  // namespace

ChildReplicator::ChildReplicator(const ArenaSmbEngine* engine,
                                 const Options& options)
    : engine_(engine),
      options_(options),
      spool_(options.spool),
      jitter_(options.jitter_seed ^ options.child_id) {
  SMB_CHECK(options.codec_mask == kCodecSmbz1);
  // A restarted child must never reuse a sequence number the parent may
  // already hold: resume past everything the spool has seen.
  next_seq_ = spool_.NextSeqFloor();
  // Process-lifetime accounting starts from what the spool recovered, so
  // the identity holds from the first Tick after a restart too.
  stats_.deltas_cut = spool_.PendingCount();
  backoff_ms_ = 0;
  next_attempt_ms_ = 0;
  // Recover() may have swept fully-acked segments a crashed trim left
  // behind; surface that reclamation the same way live trims do.
  if (spool_.ReclaimedBytes() > 0) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("repl_child_spool_reclaimed_bytes_total")
        ->Add(spool_.ReclaimedBytes());
  }
}

ChildReplicator::CutStatus ChildReplicator::CutDelta(std::string* error) {
  if (dirty_.empty()) return CutStatus::kEmpty;
  const std::vector<uint64_t> flows = SortedFlows(dirty_);
  const std::vector<uint8_t> raw = engine_->SerializeFlows(flows);
  // Spool compressed: the spool shrinks with the wire, and a delta is
  // compressed once per cut, not once per (re)transmission.
  const std::optional<std::vector<uint8_t>> payload =
      codec::CompressFlw1Image(raw);
  if (!payload.has_value()) {
    *error = "SMBZ1 compression of a delta failed";
    return CutStatus::kError;
  }
  const DeltaSpool::AppendStatus status =
      spool_.Append(next_seq_, *payload, error);
  switch (status) {
    case DeltaSpool::AppendStatus::kOk:
      break;
    case DeltaSpool::AppendStatus::kBudget:
      if (options_.shed_policy == SpoolShedPolicy::kDropNew) {
        ++stats_.deltas_cut;
        ++stats_.deltas_shed;
        dirty_.clear();
        telemetry::MetricsRegistry::Global()
            .GetCounter("repl_child_deltas_shed_total")
            ->Add();
        return CutStatus::kShed;
      }
      ++stats_.deltas_deferred;
      return CutStatus::kDeferred;
    case DeltaSpool::AppendStatus::kError:
      return CutStatus::kError;
  }
  const uint64_t seq = next_seq_++;
  dirty_.clear();
  ++stats_.deltas_cut;
  stats_.delta_raw_bytes += raw.size();
  stats_.delta_stored_bytes += payload->size();
  {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetCounter("repl_child_delta_raw_bytes_total")
        ->Add(raw.size());
    registry.GetCounter("repl_child_delta_bytes_total")
        ->Add(payload->size());
    if (stats_.delta_stored_bytes > 0) {
      registry.GetGauge("repl_wire_compression_ratio_milli")
          ->Set(static_cast<int64_t>(stats_.delta_raw_bytes * 1000 /
                                     stats_.delta_stored_bytes));
    }
  }
  if (state_ == State::kStreaming) send_queue_.push_back(seq);
  return CutStatus::kCut;
}

void ChildReplicator::EnterBackoff(uint64_t now_ms) {
  conn_.Close();
  decoder_ = FrameDecoder();
  outbox_.clear();
  send_queue_.clear();
  close_after_flush_ = false;
  state_ = State::kBackoff;
  backoff_ms_ = backoff_ms_ == 0
                    ? options_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2, options_.backoff_max_ms);
  // Full jitter: anywhere in [backoff/2, backoff] so a fleet of children
  // does not reconnect in lockstep after a parent restart.
  const uint64_t jittered =
      backoff_ms_ / 2 + jitter_.NextBounded(backoff_ms_ / 2 + 1);
  next_attempt_ms_ = now_ms + jittered;
  stats_.backoff_ms_total += jittered;
}

void ChildReplicator::StartConnecting(uint64_t now_ms) {
  ++stats_.connect_attempts;
  std::string error;
  UdsFd fd;
  switch (StartConnect(options_.socket_path, &fd, &error)) {
    case ConnectStart::kConnected:
      conn_ = std::move(fd);
      OnConnected(now_ms);
      return;
    case ConnectStart::kInProgress:
      conn_ = std::move(fd);
      state_ = State::kConnecting;
      deadline_ms_ = now_ms + options_.connect_deadline_ms;
      return;
    case ConnectStart::kFailed:
      EnterBackoff(now_ms);
      return;
  }
}

void ChildReplicator::OnConnected(uint64_t now_ms) {
  state_ = State::kAwaitHelloAck;
  deadline_ms_ = now_ms + options_.hello_deadline_ms;
  Frame hello;
  hello.type = FrameType::kHello;
  hello.child_id = options_.child_id;
  hello.seq = next_seq_;
  const auto& config = engine_->config();
  hello.payload = EncodeFingerprint(
      {config.num_bits, config.threshold, config.base_seed});
  QueueFrame(hello);
  PumpSend(now_ms);
}

void ChildReplicator::QueueFrame(const Frame& frame) {
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
}

void ChildReplicator::QueueDeltaFrame(uint64_t seq, uint64_t now_ms) {
  std::vector<uint8_t> payload;
  std::string error;
  if (!spool_.Read(seq, &payload, &error)) {
    // Spool rot under the streamer's feet: nothing to send for this seq;
    // the parent's reorder window will stall and force a reconnect, and
    // the accounting keeps the loss visible via the spool recovery drop
    // counter. Extremely cold path (requires on-disk corruption mid-run).
    return;
  }
  Frame frame;
  frame.type = FrameType::kDelta;
  frame.child_id = options_.child_id;
  frame.seq = seq;
  frame.payload = std::move(payload);
  if (seq <= highest_sent_seq_) {
    ++stats_.retransmits;
    telemetry::MetricsRegistry::Global()
        .GetCounter("repl_child_retransmits_total")
        ->Add();
  } else {
    highest_sent_seq_ = seq;
  }
  std::vector<uint8_t> bytes = EncodeFrame(frame);

  // Injected silent corruption: one bit of the encoded frame flips in
  // flight. The parent's CRC layers must reject it and the connection
  // recycles.
  const auto corrupt = SMB_FAILPOINT("repl.send.corrupt");
  if (corrupt.fired) {
    const uint64_t bit = corrupt.arg % (bytes.size() * 8);
    bytes[static_cast<size_t>(bit / 8)] ^=
        static_cast<uint8_t>(1u << (bit % 8));
  }

  // Injected torn frame: only a prefix reaches the wire, then the
  // connection drops (a crashed child / severed socket mid-frame).
  const auto torn = SMB_FAILPOINT("repl.send.short");
  if (torn.fired) {
    const size_t cut = bytes.empty()
                           ? 0
                           : 1 + static_cast<size_t>(
                                     torn.arg % (bytes.size() - 1));
    bytes.resize(cut);
    close_after_flush_ = true;
  }

  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());

  // Injected duplicate delivery: the same frame goes out twice; the
  // parent must drop the second copy by (child_id, seq).
  const auto dup = SMB_FAILPOINT("repl.send.dup");
  if (dup.fired && !close_after_flush_) {
    outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
  }

  // Injected delivery delay: the child simply stops transmitting for
  // `arg` milliseconds (queued bytes and deltas wait).
  const auto delay = SMB_FAILPOINT("repl.frame.delay");
  if (delay.fired) {
    const uint64_t hold = delay.arg == 0 ? 1 : delay.arg;
    delay_until_ms_ = now_ms + hold;
  }
}

void ChildReplicator::RebuildSendQueue() {
  send_queue_.clear();
  for (const uint64_t seq : spool_.PendingSeqs()) {
    send_queue_.push_back(seq);
  }
}

void ChildReplicator::HandleAck(uint64_t high_water) {
  const uint64_t before = spool_.PendingCount();
  const uint64_t reclaimed_before = spool_.ReclaimedBytes();
  spool_.TrimThrough(high_water);
  const uint64_t delivered = before - spool_.PendingCount();
  stats_.deltas_delivered += delivered;
  if (delivered > 0) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("repl_child_deltas_delivered_total")
        ->Add(delivered);
  }
  const uint64_t reclaimed = spool_.ReclaimedBytes() - reclaimed_before;
  if (reclaimed > 0) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("repl_child_spool_reclaimed_bytes_total")
        ->Add(reclaimed);
  }
  while (!send_queue_.empty() && send_queue_.front() <= high_water) {
    send_queue_.pop_front();
  }
}

void ChildReplicator::HandleIncoming(uint64_t now_ms) {
  std::vector<uint8_t> bytes;
  std::string error;
  const IoStatus status = RecvSome(conn_.fd(), &bytes, &error);
  if (status == IoStatus::kClosed || status == IoStatus::kError) {
    EnterBackoff(now_ms);
    return;
  }
  if (!bytes.empty()) decoder_.Feed(bytes);
  Frame frame;
  while (true) {
    const FrameDecoder::Result result = decoder_.Next(&frame, &error);
    if (result == FrameDecoder::Result::kNeedMore) break;
    if (result == FrameDecoder::Result::kCorrupt) {
      EnterBackoff(now_ms);
      return;
    }
    switch (frame.type) {
      case FrameType::kHelloAck:
        if (state_ == State::kAwaitHelloAck) {
          HandleAck(frame.seq);
          // The parent may know a higher floor than the spool does
          // (e.g. the spool directory was lost): never step back into
          // already-acked sequence space.
          next_seq_ = std::max(next_seq_, frame.seq + 1);
          RebuildSendQueue();
          state_ = State::kStreaming;
          backoff_ms_ = 0;  // healthy session resets the backoff ladder
          send_progress_deadline_ms_ = now_ms + options_.send_deadline_ms;
          last_send_ms_ = now_ms;
        }
        break;
      case FrameType::kAck:
        HandleAck(frame.seq);
        break;
      default:
        // Parents only send hello-acks and acks; anything else means the
        // peer is confused — recycle the connection.
        EnterBackoff(now_ms);
        return;
    }
  }
}

void ChildReplicator::PumpSend(uint64_t now_ms) {
  if (!conn_.valid()) return;
  if (delay_until_ms_ != 0) {
    if (now_ms < delay_until_ms_) return;
    delay_until_ms_ = 0;
  }
  // Frame more deltas only when the previous frame fully left the
  // buffer, so an injected torn frame is the LAST thing on this
  // connection.
  if (outbox_.empty() && !close_after_flush_ &&
      state_ == State::kStreaming && !send_queue_.empty()) {
    // Injected reordering: swap the next two pending deltas.
    const auto reorder = SMB_FAILPOINT("repl.send.reorder");
    if (reorder.fired && send_queue_.size() >= 2) {
      std::swap(send_queue_[0], send_queue_[1]);
    }
    const uint64_t seq = send_queue_.front();
    send_queue_.pop_front();
    QueueDeltaFrame(seq, now_ms);
  }
  if (outbox_.empty() && state_ == State::kStreaming &&
      now_ms - last_send_ms_ >= options_.heartbeat_interval_ms) {
    Frame heartbeat;
    heartbeat.type = FrameType::kHeartbeat;
    heartbeat.child_id = options_.child_id;
    heartbeat.seq = next_seq_ - 1;
    QueueFrame(heartbeat);
    ++stats_.heartbeats_sent;
  }
  if (outbox_.empty()) return;
  size_t taken = 0;
  std::string error;
  const IoStatus status =
      SendSome(conn_.fd(), outbox_, &taken, &error);
  if (taken > 0) {
    outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<long>(taken));
    last_send_ms_ = now_ms;
    send_progress_deadline_ms_ = now_ms + options_.send_deadline_ms;
  }
  if (status == IoStatus::kError) {
    EnterBackoff(now_ms);
    return;
  }
  if (outbox_.empty() && close_after_flush_) {
    ++stats_.conn_resets;
    EnterBackoff(now_ms);
    return;
  }
  // Send deadline: a peer that stopped draining us for too long gets a
  // fresh connection instead of an unbounded in-kernel queue.
  if (!outbox_.empty() && now_ms >= send_progress_deadline_ms_) {
    EnterBackoff(now_ms);
  }
}

void ChildReplicator::Tick(uint64_t now_ms) {
  switch (state_) {
    case State::kBackoff:
      if (now_ms >= next_attempt_ms_) StartConnecting(now_ms);
      return;
    case State::kConnecting: {
      pollfd pfd{conn_.fd(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, 0);
      if (ready > 0 && (pfd.revents & (POLLOUT | POLLERR | POLLHUP))) {
        std::string error;
        if (FinishConnect(conn_.fd(), &error)) {
          OnConnected(now_ms);
        } else {
          EnterBackoff(now_ms);
        }
        return;
      }
      if (now_ms >= deadline_ms_) EnterBackoff(now_ms);
      return;
    }
    case State::kAwaitHelloAck:
      HandleIncoming(now_ms);
      if (state_ != State::kAwaitHelloAck) return;
      PumpSend(now_ms);
      if (state_ == State::kAwaitHelloAck && now_ms >= deadline_ms_) {
        EnterBackoff(now_ms);
      }
      return;
    case State::kStreaming: {
      // Injected connection reset: the transport dies under a healthy
      // session; the child must reconnect and retransmit from the ack.
      const auto reset = SMB_FAILPOINT("repl.conn.reset");
      if (reset.fired) {
        ++stats_.conn_resets;
        telemetry::MetricsRegistry::Global()
            .GetCounter("repl_child_conn_resets_total")
            ->Add();
        EnterBackoff(now_ms);
        return;
      }
      HandleIncoming(now_ms);
      if (state_ != State::kStreaming) return;
      PumpSend(now_ms);
      return;
    }
  }
}

void ChildReplicator::Shutdown() {
  if (conn_.valid() && state_ == State::kStreaming && outbox_.empty()) {
    Frame goodbye;
    goodbye.type = FrameType::kGoodbye;
    goodbye.child_id = options_.child_id;
    goodbye.seq = next_seq_ - 1;
    const std::vector<uint8_t> bytes = EncodeFrame(goodbye);
    size_t taken = 0;
    std::string error;
    SendSome(conn_.fd(), bytes, &taken, &error);  // best effort
  }
  conn_.Close();
  state_ = State::kBackoff;
  next_attempt_ms_ = 0;
}

ChildReplicator::Stats ChildReplicator::stats() const {
  Stats stats = stats_;
  stats.spooled_deltas = spool_.PendingCount();
  stats.spooled_bytes = spool_.PendingBytes();
  return stats;
}

}  // namespace smb::repl
