#include "repl/replication_sink.h"

#include <poll.h>

#include <algorithm>
#include <cstring>

#include "codec/smbz1.h"
#include "common/le_bytes.h"
#include "fault/failpoints.h"
#include "telemetry/metrics_registry.h"

namespace smb::repl {
namespace {

// Parent checkpoint payload (inside the CheckpointStore's CRC framing):
//   magic "SMBRPAR1" (8 bytes) | u64 num_children
//   per child: u64 child_id | u64 high_water | u64 snapshot_len
//              | snapshot bytes (replica FLW1 image, SMBZ1-compressed)
constexpr char kParentMagic[8] = {'S', 'M', 'B', 'R', 'P', 'A', 'R', '1'};

// The recording geometry two engines must share to merge.
GeometryFingerprint FingerprintOf(const ArenaSmbEngine::Config& config) {
  return {config.num_bits, config.threshold, config.base_seed};
}

}  // namespace

ReplicationSink::ReplicationSink(const Options& options)
    : options_(options) {
  if (!options_.checkpoint_dir.empty()) {
    io::CheckpointStore::Options store_options;
    store_options.directory = options_.checkpoint_dir;
    store_options.keep_generations = options_.keep_checkpoints;
    store_options.sync = options_.checkpoint_sync;
    checkpoints_ = std::make_unique<io::CheckpointStore>(store_options);
    RecoverFromCheckpoint();
  }
}

bool ReplicationSink::Listen(std::string* error) {
  return listener_.Listen(options_.socket_path, error);
}

void ReplicationSink::Close() {
  for (auto& child : children_) child.second.conn_index = -1;
  conns_.clear();
  listener_ = UdsListener();
}

ReplicationSink::ChildState& ReplicationSink::ChildFor(uint64_t child_id) {
  auto it = children_.find(child_id);
  if (it == children_.end()) {
    ChildState state;
    state.replica =
        std::make_unique<ArenaSmbEngine>(options_.engine_config);
    DeltaSequencer::Options seq_options;
    seq_options.reorder_window = options_.reorder_window;
    seq_options.initial_high_water = 0;
    state.sequencer = std::make_unique<DeltaSequencer>(seq_options);
    it = children_.emplace(child_id, std::move(state)).first;
  }
  return it->second;
}

void ReplicationSink::RecoverFromCheckpoint() {
  const io::CheckpointStore::RecoverResult result =
      checkpoints_->RecoverLatest();
  if (!result.ok) return;  // clean start (or all candidates corrupt)
  const std::vector<uint8_t>& payload = result.payload;
  if (payload.size() < 16 ||
      std::memcmp(payload.data(), kParentMagic, 8) != 0) {
    return;
  }
  size_t pos = 8;
  uint64_t num_children = 0;
  if (!ReadU64(payload, &pos, &num_children)) return;
  std::map<uint64_t, ChildState> recovered;
  for (uint64_t i = 0; i < num_children; ++i) {
    uint64_t child_id = 0, high_water = 0, snap_len = 0;
    if (!ReadU64(payload, &pos, &child_id) ||
        !ReadU64(payload, &pos, &high_water) ||
        !ReadU64(payload, &pos, &snap_len) ||
        snap_len > payload.size() - pos) {
      return;  // torn inner layout: keep the clean-start state
    }
    const std::span<const uint8_t> snapshot(payload.data() + pos, snap_len);
    pos += snap_len;
    // Replicas are stored SMBZ1 only. Anything else (a raw FLW1 image
    // included) is not a checkpoint this sink wrote: start clean, the
    // same as for a geometry mismatch below.
    const auto raw = codec::DecompressToFlw1Image(snapshot);
    if (!raw.has_value()) return;
    auto replica = ArenaSmbEngine::Deserialize(*raw);
    // A replica recorded under another geometry could never merge with
    // this sink's config or its children's deltas: start clean instead.
    if (!replica.has_value() ||
        FingerprintOf(replica->config()) !=
            FingerprintOf(options_.engine_config)) {
      return;
    }
    ChildState state;
    state.replica = std::make_unique<ArenaSmbEngine>(std::move(*replica));
    DeltaSequencer::Options seq_options;
    seq_options.reorder_window = options_.reorder_window;
    seq_options.initial_high_water = high_water;
    state.sequencer = std::make_unique<DeltaSequencer>(seq_options);
    state.persisted_high_water = high_water;
    recovered.emplace(child_id, std::move(state));
  }
  children_ = std::move(recovered);
}

bool ReplicationSink::MaybeCheckpoint() {
  if (!dirty_since_checkpoint_) return true;
  if (!checkpoints_) {
    // No durability configured: acks track the in-memory apply.
    for (auto& [id, child] : children_) {
      (void)id;
      child.persisted_high_water = child.sequencer->high_water();
    }
    dirty_since_checkpoint_ = false;
    return true;
  }
  std::vector<uint8_t> payload;
  for (char c : kParentMagic) payload.push_back(static_cast<uint8_t>(c));
  AppendU64(&payload, children_.size());
  uint64_t snapshot_raw_bytes = 0;
  uint64_t snapshot_stored_bytes = 0;
  for (const auto& [child_id, child] : children_) {
    const std::vector<uint8_t> raw = child.replica->Serialize();
    const auto snapshot = codec::CompressFlw1Image(raw);
    if (!snapshot.has_value()) {
      // Never expected for our own Serialize output; hold acks back
      // rather than persist a replica in any other encoding.
      ++stats_.checkpoint_failures;
      return false;
    }
    snapshot_raw_bytes += raw.size();
    snapshot_stored_bytes += snapshot->size();
    AppendU64(&payload, child_id);
    AppendU64(&payload, child.sequencer->high_water());
    AppendU64(&payload, snapshot->size());
    payload.insert(payload.end(), snapshot->begin(), snapshot->end());
  }
  const io::CheckpointStore::WriteResult result =
      checkpoints_->Write(payload);
  if (!result.ok) {
    ++stats_.checkpoint_failures;
    return false;  // persisted marks unchanged — acks stay held back
  }
  ++stats_.checkpoints_written;
  if (snapshot_stored_bytes > 0) {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetGauge("repl_parent_snapshot_raw_bytes")
        ->Set(static_cast<int64_t>(snapshot_raw_bytes));
    registry.GetGauge("repl_parent_snapshot_stored_bytes")
        ->Set(static_cast<int64_t>(snapshot_stored_bytes));
    registry.GetGauge("repl_parent_snapshot_compression_ratio_milli")
        ->Set(static_cast<int64_t>(snapshot_raw_bytes * 1000 /
                                   snapshot_stored_bytes));
  }
  for (auto& [id, child] : children_) {
    (void)id;
    child.persisted_high_water = child.sequencer->high_water();
  }
  dirty_since_checkpoint_ = false;
  return true;
}

bool ReplicationSink::ApplyDeltaPayload(
    ChildState& child, const std::vector<uint8_t>& payload) {
  // Deltas travel SMBZ1 only: a payload that does not decompress (a raw
  // FLW1 image included) is rejected. The FLW1 image it decodes to then
  // clears full validation (checksum, reachability, popcount identity)
  // before any replica row is touched.
  const auto raw = codec::DecompressToFlw1Image(payload);
  if (!raw.has_value()) return false;
  auto delta = ArenaSmbEngine::Deserialize(*raw);
  if (!delta.has_value()) return false;
  if (!child.replica->CanMergeWith(*delta)) return false;
  bool ok = true;
  delta->ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                              std::span<const uint64_t> words) {
    // Replacement semantics: the delta carries each dirty flow's FULL
    // state, so upsert makes the replica converge on the child's state
    // no matter how many times the delta is re-applied.
    ok = child.replica->UpsertFlowState(flow, round, ones, words) && ok;
  });
  return ok;
}

void ReplicationSink::ApplyReady(ChildState& child) {
  uint64_t seq = 0;
  const std::vector<uint8_t>* payload = nullptr;
  while (child.sequencer->NextReady(&seq, &payload)) {
    if (ApplyDeltaPayload(child, *payload)) {
      child.sequencer->Commit();
      ++child.deltas_applied;
      ++stats_.deltas_applied;
      dirty_since_checkpoint_ = true;
      telemetry::MetricsRegistry::Global()
          .GetCounter("repl_parent_deltas_applied_total")
          ->Add();
    } else {
      // Corrupt past the wire CRCs (or geometry drift): refuse without
      // advancing; the child retransmits after its connection recycles.
      child.sequencer->Reject();
      ++child.rejected;
      ++stats_.rejected_payloads;
      telemetry::MetricsRegistry::Global()
          .GetCounter("repl_parent_rejected_payloads_total")
          ->Add();
      if (child.conn_index >= 0) {
        DropConn(static_cast<size_t>(child.conn_index));
      }
      return;
    }
  }
}

void ReplicationSink::SendAck(size_t conn_index, uint64_t child_id,
                              uint64_t high_water, FrameType type) {
  // Injected ack loss: the child's cumulative-ack + heartbeat-ack repair
  // path has to absorb it.
  const auto drop = SMB_FAILPOINT("repl.ack.drop");
  if (drop.fired) {
    ++stats_.acks_dropped;
    return;
  }
  Frame ack;
  ack.type = type;
  ack.child_id = child_id;
  ack.seq = high_water;
  const std::vector<uint8_t> bytes = EncodeFrame(ack);
  Conn& conn = conns_[conn_index];
  conn.outbox.insert(conn.outbox.end(), bytes.begin(), bytes.end());
  ++stats_.acks_sent;
}

void ReplicationSink::DropConn(size_t conn_index) {
  Conn& conn = conns_[conn_index];
  if (conn.bound) {
    auto it = children_.find(conn.bound_child);
    if (it != children_.end() &&
        it->second.conn_index == static_cast<int>(conn_index)) {
      it->second.conn_index = -1;
    }
  }
  conn.fd.Close();
  conn.closing = true;
  ++stats_.conns_dropped;
}

void ReplicationSink::FlushConn(size_t conn_index) {
  Conn& conn = conns_[conn_index];
  if (!conn.fd.valid() || conn.outbox.empty()) return;
  size_t taken = 0;
  std::string error;
  const IoStatus status =
      SendSome(conn.fd.fd(), conn.outbox, &taken, &error);
  if (taken > 0) {
    conn.outbox.erase(conn.outbox.begin(),
                      conn.outbox.begin() + static_cast<long>(taken));
  }
  if (status == IoStatus::kError) DropConn(conn_index);
}

void ReplicationSink::HandleFrame(size_t conn_index, Frame frame,
                                  uint64_t now_ms) {
  ++stats_.frames_received;
  Conn& conn = conns_[conn_index];
  if (frame.type == FrameType::kHello) {
    GeometryFingerprint fingerprint;
    if (!DecodeFingerprint(frame.payload, &fingerprint) ||
        fingerprint != FingerprintOf(options_.engine_config)) {
      ++stats_.rejected_hellos;
      DropConn(conn_index);
      return;
    }
    ChildState& child = ChildFor(frame.child_id);
    // One live connection per child: a reconnect (new fd) supersedes any
    // half-dead predecessor.
    if (child.conn_index >= 0 &&
        child.conn_index != static_cast<int>(conn_index)) {
      DropConn(static_cast<size_t>(child.conn_index));
    }
    child.conn_index = static_cast<int>(conn_index);
    child.last_seen_ms = now_ms;
    conn.bound = true;
    conn.bound_child = frame.child_id;
    SendAck(conn_index, frame.child_id, child.persisted_high_water,
            FrameType::kHelloAck);
    return;
  }
  // Everything else requires a bound session whose child id matches.
  if (!conn.bound || conn.bound_child != frame.child_id) {
    DropConn(conn_index);
    return;
  }
  ChildState& child = ChildFor(frame.child_id);
  child.last_seen_ms = now_ms;
  switch (frame.type) {
    case FrameType::kDelta: {
      const DeltaSequencer::Offer offer =
          child.sequencer->OfferDelta(frame.seq, std::move(frame.payload));
      if (offer == DeltaSequencer::Offer::kDuplicate) {
        // At-least-once delivery: drop and re-ack so the sender trims.
        telemetry::MetricsRegistry::Global()
            .GetCounter("repl_parent_dup_dropped_total")
            ->Add();
        ++stats_.dup_dropped;
        SendAck(conn_index, frame.child_id, child.persisted_high_water,
                FrameType::kAck);
        return;
      }
      if (offer == DeltaSequencer::Offer::kOverflow) {
        // Too far out of order to buffer: recycle the connection and let
        // retransmission re-deliver in order.
        DropConn(conn_index);
        return;
      }
      ApplyReady(child);
      return;
    }
    case FrameType::kHeartbeat:
      // Heartbeats double as ack repair: a child whose ack was dropped
      // learns the high-water on its next keepalive.
      SendAck(conn_index, frame.child_id, child.persisted_high_water,
              FrameType::kAck);
      return;
    case FrameType::kGoodbye:
      DropConn(conn_index);
      return;
    default:
      // Children never send hello-acks or acks.
      DropConn(conn_index);
      return;
  }
}

size_t ReplicationSink::PollOnce(uint64_t now_ms, int timeout_ms) {
  if (!listener_.listening()) return 0;
  std::vector<pollfd> pfds;
  pfds.push_back({listener_.fd(), POLLIN, 0});
  std::vector<size_t> conn_of_pfd;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i].fd.valid()) continue;
    short events = POLLIN;
    if (!conns_[i].outbox.empty()) events |= POLLOUT;
    pfds.push_back({conns_[i].fd.fd(), events, 0});
    conn_of_pfd.push_back(i);
  }
  const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  size_t frames = 0;
  if (ready > 0) {
    if (pfds[0].revents & POLLIN) {
      int fd;
      while ((fd = listener_.Accept()) >= 0) {
        Conn conn;
        conn.fd = UdsFd(fd);
        conns_.push_back(std::move(conn));
        ++stats_.conns_accepted;
      }
    }
    for (size_t p = 1; p < pfds.size(); ++p) {
      const size_t index = conn_of_pfd[p - 1];
      Conn& conn = conns_[index];
      if (!conn.fd.valid()) continue;
      if (pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) {
        std::vector<uint8_t> bytes;
        std::string error;
        const IoStatus status = RecvSome(conn.fd.fd(), &bytes, &error);
        if (!bytes.empty()) conn.decoder.Feed(bytes);
        Frame frame;
        while (conn.fd.valid()) {
          const FrameDecoder::Result result =
              conn.decoder.Next(&frame, &error);
          if (result == FrameDecoder::Result::kNeedMore) break;
          if (result == FrameDecoder::Result::kCorrupt) {
            // Torn or bit-flipped delivery: the stream is poisoned;
            // nothing from it reached a replica.
            ++stats_.rejected_frames;
            telemetry::MetricsRegistry::Global()
                .GetCounter("repl_parent_rejected_frames_total")
                ->Add();
            DropConn(index);
            break;
          }
          ++frames;
          HandleFrame(index, std::move(frame), now_ms);
          if (index < conns_.size() && conns_[index].closing) break;
        }
        if (conn.fd.valid() && (status == IoStatus::kClosed ||
                                status == IoStatus::kError)) {
          DropConn(index);
        }
      }
    }
  }
  // Persist whatever advanced, then ack it. A failed checkpoint simply
  // holds acks back — children keep their spools and retry later.
  const std::map<uint64_t, uint64_t> before = [&] {
    std::map<uint64_t, uint64_t> marks;
    for (const auto& [id, child] : children_) {
      marks[id] = child.persisted_high_water;
    }
    return marks;
  }();
  MaybeCheckpoint();
  for (auto& [child_id, child] : children_) {
    const auto it = before.find(child_id);
    const uint64_t old_mark = it == before.end() ? 0 : it->second;
    if (child.persisted_high_water > old_mark && child.conn_index >= 0) {
      SendAck(static_cast<size_t>(child.conn_index), child_id,
              child.persisted_high_water, FrameType::kAck);
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) FlushConn(i);
  // Compact closed connections (and re-point the child bindings).
  std::vector<Conn> live;
  live.reserve(conns_.size());
  for (auto& conn : conns_) {
    if (conn.fd.valid()) live.push_back(std::move(conn));
  }
  conns_ = std::move(live);
  for (auto& [id, child] : children_) {
    (void)id;
    child.conn_index = -1;
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].bound) {
      auto it = children_.find(conns_[i].bound_child);
      if (it != children_.end()) {
        it->second.conn_index = static_cast<int>(i);
      }
    }
  }
  PublishChildTelemetry(now_ms);
  return frames;
}

ArenaSmbEngine ReplicationSink::MergedEngine() const {
  // Ascending child id — the same order the oracle merge uses, so the
  // merged state is bit-identical to it (std::map iterates sorted).
  ArenaSmbEngine merged(options_.engine_config);
  for (const auto& [id, child] : children_) {
    (void)id;
    merged.MergeFrom(*child.replica);
  }
  return merged;
}

double ReplicationSink::MergedQuery(uint64_t flow) const {
  // Same ascending-child-id order as MergedEngine(), folded for this one
  // flow only.
  std::vector<const ArenaSmbEngine*> replicas;
  replicas.reserve(children_.size());
  for (const auto& [id, child] : children_) {
    (void)id;
    replicas.push_back(child.replica.get());
  }
  return ArenaSmbEngine::QueryMerged(replicas, flow);
}

std::vector<ReplicationSink::ChildInfo> ReplicationSink::Children(
    uint64_t now_ms) const {
  std::vector<ChildInfo> out;
  out.reserve(children_.size());
  for (const auto& [child_id, child] : children_) {
    ChildInfo info;
    info.child_id = child_id;
    info.connected = child.conn_index >= 0;
    info.alive = child.last_seen_ms != 0 &&
                 now_ms - child.last_seen_ms <= options_.child_timeout_ms;
    info.acked_seq = child.persisted_high_water;
    info.applied_seq = child.sequencer->high_water();
    info.deltas_applied = child.deltas_applied;
    info.dup_dropped = child.sequencer->duplicates();
    info.reordered = child.sequencer->reordered();
    info.rejected = child.rejected;
    info.last_seen_ms = child.last_seen_ms;
    info.replica_flows = child.replica->NumFlows();
    out.push_back(info);
  }
  return out;
}

void ReplicationSink::PublishChildTelemetry(uint64_t now_ms) {
  auto& registry = telemetry::MetricsRegistry::Global();
  for (const ChildInfo& info : Children(now_ms)) {
    const telemetry::Labels labels = {
        {"child", std::to_string(info.child_id)}};
    registry.GetGauge("repl_child_connected", labels)
        ->Set(info.connected ? 1 : 0);
    registry.GetGauge("repl_child_alive", labels)->Set(info.alive ? 1 : 0);
    registry.GetGauge("repl_child_acked_seq", labels)
        ->Set(static_cast<int64_t>(info.acked_seq));
    registry.GetGauge("repl_child_replica_flows", labels)
        ->Set(static_cast<int64_t>(info.replica_flows));
  }
}

}  // namespace smb::repl
