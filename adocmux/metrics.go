package adocmux

import (
	"adoc/internal/obs"
)

// Registry metric families the mux layer publishes.
const (
	// MetricStreamsOpened counts streams this endpoint opened.
	MetricStreamsOpened = "adoc_mux_streams_opened_total"
	// MetricStreamsAccepted counts peer-opened streams queued for
	// AcceptStream.
	MetricStreamsAccepted = "adoc_mux_streams_accepted_total"
	// MetricAcceptOverflows counts peer opens refused because the accept
	// backlog was full.
	MetricAcceptOverflows = "adoc_mux_accept_overflows_total"
	// MetricActiveStreams is the live stream count across sessions.
	MetricActiveStreams = "adoc_mux_active_streams"
	// MetricBatchesSent counts coalesced frame batches shipped as AdOC
	// messages.
	MetricBatchesSent = "adoc_mux_batches_sent_total"
	// MetricBatchBytes counts the frame bytes those batches carried.
	MetricBatchBytes = "adoc_mux_batch_bytes_total"
	// MetricWindowGrants counts credit grant frames sent to the peer
	// (steady-state grants, surplus top-ups, and dead-stream refunds).
	MetricWindowGrants = "adoc_mux_window_grants_total"
)

// sessionMetrics holds one session's children of the registry families.
// Counter/gauge updates bump both the session's view and the registry
// totals with plain atomic adds — nothing on the frame path allocates.
type sessionMetrics struct {
	opened          *obs.Counter
	accepted        *obs.Counter
	acceptOverflows *obs.Counter
	active          *obs.Gauge
	batches         *obs.Counter
	batchBytes      *obs.Counter
	windowGrants    *obs.Counter
}

func newSessionMetrics(reg *obs.Registry) sessionMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return sessionMetrics{
		opened:          reg.Counter(MetricStreamsOpened, "Streams opened by this endpoint.").Child(),
		accepted:        reg.Counter(MetricStreamsAccepted, "Peer-opened streams accepted.").Child(),
		acceptOverflows: reg.Counter(MetricAcceptOverflows, "Peer opens refused on a full accept backlog.").Child(),
		active:          reg.Gauge(MetricActiveStreams, "Live streams.").Child(),
		batches:         reg.Counter(MetricBatchesSent, "Coalesced frame batches shipped.").Child(),
		batchBytes:      reg.Counter(MetricBatchBytes, "Frame bytes those batches carried.").Child(),
		windowGrants:    reg.Counter(MetricWindowGrants, "Credit grant frames sent to the peer.").Child(),
	}
}
