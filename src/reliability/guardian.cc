#include "reliability/guardian.h"

#include <utility>

namespace cim::reliability {

Expected<std::unique_ptr<StreamGuardian>> StreamGuardian::Create(
    arch::Fabric* fabric, std::uint64_t stream_id,
    std::vector<noc::NodeId> primary_path,
    std::vector<std::vector<noc::NodeId>> backup_paths, Sink sink,
    int max_retries_per_payload) {
  if (fabric == nullptr) return InvalidArgument("fabric required");
  if (primary_path.empty()) return InvalidArgument("primary path empty");
  if (max_retries_per_payload < 0) {
    return InvalidArgument("negative retry budget");
  }
  std::vector<std::vector<noc::NodeId>> paths;
  paths.push_back(std::move(primary_path));
  for (auto& p : backup_paths) {
    if (p.empty()) return InvalidArgument("backup path empty");
    paths.push_back(std::move(p));
  }
  std::unique_ptr<StreamGuardian> guardian(
      new StreamGuardian(fabric, stream_id, std::move(paths), std::move(sink),
                         max_retries_per_payload));
  if (Status s = fabric->ConfigureStream(stream_id, guardian->paths_[0],
                                         noc::QosClass::kRealtime);
      !s.ok()) {
    return s;
  }
  StreamGuardian* self = guardian.get();
  if (Status s = fabric->SetStreamSink(
          stream_id,
          [self](std::vector<double> payload, TimeNs at) {
            self->OnComplete(std::move(payload), at);
          });
      !s.ok()) {
    return s;
  }
  return guardian;
}

StreamGuardian::StreamGuardian(arch::Fabric* fabric, std::uint64_t stream_id,
                               std::vector<std::vector<noc::NodeId>> paths,
                               Sink sink, int max_retries)
    : fabric_(fabric),
      stream_id_(stream_id),
      paths_(std::move(paths)),
      user_sink_(std::move(sink)),
      max_retries_(max_retries) {}

Status StreamGuardian::Inject(std::vector<double> payload) {
  held_.push_back(Held{next_seq_++, payload, 0});
  ++stats_.injected;
  return fabric_->InjectData(stream_id_, std::move(payload));
}

void StreamGuardian::OnComplete(std::vector<double> payload, TimeNs at) {
  // Static path + single QoS class => FIFO completion; the head of the
  // held queue is the payload that just finished.
  if (!held_.empty()) held_.pop_front();
  ++stats_.completed;
  ++completed_seen_;
  if (user_sink_) user_sink_(std::move(payload), at);
}

bool StreamGuardian::PathHealthy(
    const std::vector<noc::NodeId>& path) const {
  for (noc::NodeId node : path) {
    auto tile = const_cast<arch::Fabric*>(fabric_)->TileAt(node);
    if (!tile.ok() || (*tile)->failed()) return false;
  }
  return true;
}

Status StreamGuardian::SwitchToHealthyPath() {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (PathHealthy(paths_[i])) {
      if (i != path_index_) {
        if (Status s = fabric_->RedirectStream(stream_id_, paths_[i]);
            !s.ok()) {
          return s;
        }
        path_index_ = i;
        ++stats_.redirections;
      }
      return Status::Ok();
    }
  }
  return Unavailable("no healthy path available");
}

void StreamGuardian::Poll() {
  const arch::StreamStats* fabric_stats = fabric_->StatsFor(stream_id_);
  if (fabric_stats == nullptr) return;
  // Payloads neither completed nor still being processed have failed in
  // flight; with FIFO semantics they are the oldest held entries.
  const std::uint64_t failures = fabric_stats->failed;
  if (failures <= failures_seen_) return;
  std::uint64_t new_failures = failures - failures_seen_;
  failures_seen_ = failures;

  if (Status s = SwitchToHealthyPath(); !s.ok()) {
    // No healthy path: everything outstanding is lost.
    stats_.lost += held_.size();
    held_.clear();
    return;
  }
  while (new_failures-- > 0 && !held_.empty()) {
    Held item = std::move(held_.front());
    held_.pop_front();
    if (item.retries >= max_retries_) {
      ++stats_.lost;
      continue;
    }
    ++item.retries;
    ++stats_.retried;
    std::vector<double> payload = item.payload;
    held_.push_back(std::move(item));
    // Best-effort re-injection: the enqueue happens at the (healthy) source
    // node, and a loss downstream is what the next Poll() detects and
    // retries anyway, so a failure here must not abort the recovery loop.
    // cimlint: allow(discarded-status)
    (void)fabric_->InjectData(stream_id_, std::move(payload));
  }
}

}  // namespace cim::reliability
