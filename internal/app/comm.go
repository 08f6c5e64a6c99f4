package app

// The intra-node communication of the application: at iteration k the pivot
// column A(:,k) and pivot row B(k,:) are broadcast — every process needs the
// pieces overlapping its rectangle, owned by the processes whose rectangles
// contain block column/row k. The paper deliberately does not model
// communication ("we arrange elements so that the communication volume is
// minimised"). CommModel prices the broadcast volume at one aggregate
// bandwidth; Network goes one level deeper so the arrangement's effect can
// be simulated rather than only counted: transfers are scheduled on
// per-process link timelines (internal/sim) under an aggregate
// memory-bandwidth cap, and the per-iteration communication time emerges
// from the schedule.

import (
	"fmt"
	"math"

	"fpmpart/internal/layout"
	"fpmpart/internal/sim"
)

// CommModel is the intra-node communication cost model for the pivot
// row/column broadcasts: per iteration every process receives the parts of
// the pivot column and row overlapping its rectangle, moved over shared
// memory at the given effective bandwidth.
type CommModel struct {
	// Bandwidth is the effective aggregate copy bandwidth, bytes/second.
	Bandwidth float64
	// Latency is the per-iteration synchronisation/startup cost, seconds.
	Latency float64
}

// DefaultComm is a typical shared-memory broadcast model for a NUMA node.
func DefaultComm() CommModel {
	return CommModel{Bandwidth: 6e9, Latency: 40e-6}
}

// IterationTime returns the communication time of one application iteration
// for the given block layout and blocking factor.
func (c CommModel) IterationTime(bl *layout.BlockLayout, blockBytes float64) float64 {
	if c.Bandwidth <= 0 {
		return 0
	}
	// Each process receives (w_i + h_i) blocks of pivot data per iteration.
	bytes := bl.CommVolume() * blockBytes
	return c.Latency + bytes/c.Bandwidth
}

// Network describes the node's interconnect (shared memory on the paper's
// platform, but the same model covers a flat network).
type Network struct {
	// LinkBandwidth is one process pair's copy bandwidth, bytes/second.
	LinkBandwidth float64
	// AggregateBandwidth caps the node's total copy throughput (memory
	// system); 0 = unlimited.
	AggregateBandwidth float64
	// Latency is the per-message startup cost, seconds.
	Latency float64
}

// DefaultNetwork models a NUMA node's shared-memory copies: ~4 GB/s per
// pair, ~12 GB/s aggregate, microsecond-scale latency.
func DefaultNetwork() Network {
	return Network{LinkBandwidth: 4e9, AggregateBandwidth: 12e9, Latency: 2e-6}
}

// Validate reports configuration errors.
func (n Network) Validate() error {
	if n.LinkBandwidth <= 0 {
		return fmt.Errorf("app: link bandwidth %v", n.LinkBandwidth)
	}
	if n.AggregateBandwidth < 0 || n.Latency < 0 {
		return fmt.Errorf("app: aggregate %v, latency %v", n.AggregateBandwidth, n.Latency)
	}
	return nil
}

// Transfer is one point-to-point message.
type Transfer struct {
	// From and To are process (rectangle) indices.
	From, To int
	// Bytes is the message size.
	Bytes float64
}

// overlap returns the length of the intersection of [a0, a1) and [b0, b1).
func overlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := math.Max(a0, b0), math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// PivotTransfers enumerates the messages of iteration k on the given block
// layout: for every process, the pieces of pivot column k it needs for its
// rows (sent by the owners of block column k) and the pieces of pivot row k
// it needs for its columns (sent by the owners of block row k).
// Self-messages are omitted. blockBytes is the size of one b×b block.
func PivotTransfers(bl *layout.BlockLayout, k int, blockBytes float64) ([]Transfer, error) {
	if k < 0 || k >= bl.N {
		return nil, fmt.Errorf("app: pivot index %d out of 0..%d", k, bl.N-1)
	}
	var out []Transfer
	for to, r := range bl.Rects {
		if r.W == 0 || r.H == 0 {
			continue
		}
		// Pivot column pieces: blocks (k, y) for y in the receiver's rows.
		for from, o := range bl.Rects {
			if from == to || o.W == 0 || o.H == 0 {
				continue
			}
			if float64(k) >= o.X && float64(k) < o.X+o.W {
				if rows := overlap(r.Y, r.Y+r.H, o.Y, o.Y+o.H); rows > 0 {
					out = append(out, Transfer{From: from, To: to, Bytes: rows * blockBytes})
				}
			}
			// Pivot row pieces: blocks (x, k) for x in the receiver's cols.
			if float64(k) >= o.Y && float64(k) < o.Y+o.H {
				if cols := overlap(r.X, r.X+r.W, o.X, o.X+o.W); cols > 0 {
					out = append(out, Transfer{From: from, To: to, Bytes: cols * blockBytes})
				}
			}
		}
	}
	return out, nil
}

// IterationTime schedules the transfers on per-process send and receive
// link timelines (full duplex) and returns the makespan, respecting the
// aggregate bandwidth cap.
func (n Network) IterationTime(transfers []Transfer, procs int) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	if len(transfers) == 0 {
		return 0, nil
	}
	send := make([]*sim.Resource, procs)
	recv := make([]*sim.Resource, procs)
	for i := 0; i < procs; i++ {
		send[i] = sim.NewResource(fmt.Sprintf("send%d", i), nil)
		recv[i] = sim.NewResource(fmt.Sprintf("recv%d", i), nil)
	}
	var makespan, totalBytes float64
	for _, tr := range transfers {
		if tr.From < 0 || tr.From >= procs || tr.To < 0 || tr.To >= procs {
			return 0, fmt.Errorf("app: transfer %v out of %d processes", tr, procs)
		}
		if tr.Bytes < 0 {
			return 0, fmt.Errorf("app: negative bytes %v", tr.Bytes)
		}
		dur := n.Latency + tr.Bytes/n.LinkBandwidth
		ready := math.Max(send[tr.From].FreeAt(), recv[tr.To].FreeAt())
		_, sEnd := send[tr.From].Exec(ready, dur)
		_, rEnd := recv[tr.To].Exec(ready, dur)
		end := math.Max(sEnd, rEnd)
		if end > makespan {
			makespan = end
		}
		totalBytes += tr.Bytes
	}
	if n.AggregateBandwidth > 0 {
		if floor := totalBytes / n.AggregateBandwidth; floor > makespan {
			makespan = floor
		}
	}
	return makespan, nil
}

// AppTime returns the total communication time of a full application run on
// the layout: the sum over all N iterations of the scheduled per-iteration
// time.
func (n Network) AppTime(bl *layout.BlockLayout, blockBytes float64) (float64, error) {
	if err := bl.Validate(); err != nil {
		return 0, err
	}
	var total float64
	for k := 0; k < bl.N; k++ {
		trs, err := PivotTransfers(bl, k, blockBytes)
		if err != nil {
			return 0, err
		}
		t, err := n.IterationTime(trs, len(bl.Rects))
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}
