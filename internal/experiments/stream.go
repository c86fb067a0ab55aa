package experiments

// Out-of-core collection. In StreamCollect mode the observation log is each
// campaign's only sink: the scan workers hand every observation to its
// per-protocol spill and keep nothing, so the Datasets carry empty Obs
// slices. Once the epoch is folded, one bounded pass per shard builds the
// three datasets: it streams the folded segment through their resolver
// sessions and derives their address universes. Peak collection memory is
// O(alias-set output + arena + readahead), not O(observations) — the
// property the megascale-x100 preset depends on.
//
// The replay invariant: the log's canonical epoch fold orders records by
// (source, address, digest) and drops exact duplicates, and resolver
// sessions are order-insensitive by contract, so a streamed run's alias
// sets are byte-identical to the in-RAM run's — the same sets_digest,
// gated by the stream-equivalence tests.

import (
	"io"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/topo"
)

// streamSource backs a stream-collected Dataset: its observations live in
// one folded epoch of the observation log, not in RAM. It references the
// live Writer rather than raw byte offsets because the seal replay reads
// the epoch after FoldEpoch and before the manifest commits it, when only
// the writer knows the segment's end.
type streamSource struct {
	log    *obslog.Writer
	epoch  int
	active bool // dataset includes SourceActive records
	censys bool // dataset includes SourceCensys records
}

// reader opens a bounded-readahead reader over the dataset's epoch segment.
func (ss *streamSource) reader(p ident.Protocol) (*obslog.EpochReader, error) {
	return ss.log.EpochReaderAt(p, ss.epoch, obslog.ReadOptions{})
}

// wants reports whether the dataset includes records from a campaign.
func (ss *streamSource) wants(src obslog.Source) bool {
	if src == obslog.SourceCensys {
		return ss.censys
	}
	return ss.active
}

// each streams the dataset's observations for one protocol, in the log's
// canonical (source, address, digest) order.
func (ss *streamSource) each(p ident.Protocol, fn func(alias.Observation)) error {
	r, err := ss.reader(p)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if ss.wants(src) {
			fn(o)
		}
	}
}

// EachObs visits every observation of one protocol in a deterministic
// order: the collection order for an in-RAM dataset, the log's canonical
// order for a stream-backed one. It is the iteration seam analyses use
// instead of reading Obs directly, so they work identically over both
// representations.
func (d *Dataset) EachObs(p ident.Protocol, fn func(alias.Observation)) error {
	if d.stream != nil {
		return d.stream.each(p, fn)
	}
	for _, o := range d.Obs[p] {
		fn(o)
	}
	return nil
}

// streamEnv builds an epoch's three datasets from its folded log segment:
// one bounded pass per shard streams every record into its campaign's
// session and the union's, and derives each dataset's address universe on
// the way — the only per-observation state a streamed dataset keeps
// resident. A read error aborts the build, so no dataset is ever built from
// a defective segment.
func streamEnv(w *topo.World, lg *obslog.Writer, epoch int) (*Env, error) {
	streamed := func(name string, active, censys bool) *Dataset {
		d := emptyDataset(name)
		d.stream = &streamSource{log: lg, epoch: epoch, active: active, censys: censys}
		return d
	}
	active, censys, both := streamed("Active", true, false), streamed("Censys", false, true), streamed("Union", true, true)
	for _, p := range ident.Protocols {
		if err := streamPass(p, active, censys, both); err != nil {
			return nil, err
		}
	}
	return newEnv(w, active, censys, both), nil
}

// streamPass replays one shard's folded epoch segment into the datasets'
// sessions and address universes.
func streamPass(p ident.Protocol, active, censys, both *Dataset) error {
	r, err := both.stream.reader(p)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ds := active
		if src == obslog.SourceCensys {
			ds = censys
		}
		ds.addrs[p] = appendAddr(ds.addrs[p], o.Addr)
		ds.views.session.Observe(o)
		both.views.session.Observe(o)
	}
	both.addrs[p] = mergeAddrs(active.addrs[p], censys.addrs[p])
	return nil
}
