package serve

import (
	"hamster/internal/loadgen"
	"hamster/internal/memsim"
)

// kindFor maps a percentile draw to this workload's op mix.
func (st *nodeState) kindFor(draw uint64) int64 {
	switch st.cfg.Workload {
	case WorkloadKV:
		switch {
		case draw < 50:
			return opGet
		case draw < 90:
			return opPut
		default:
			return opScan
		}
	case WorkloadSyncLog:
		if draw < 60 {
			return opPush
		}
		return opPull
	default: // pipeline
		return opEvent
	}
}

// apply executes one op against its shard slot and returns a read
// digest plus the shard touched. Mutating ops use commutative update
// rules (wrapping sums, max-merge), so the final store state — and the
// checksum folded from it — is independent of apply order. That is what
// keeps checksums identical across engines, schedules, and
// crash/recovery round shifts.
//
// Slot layouts (4 words):
//
//	kv/pipeline: [value, version, sessionSum, 0]
//	synclog:     [ts, session, value, versions]
func (st *nodeState) apply(q *qop) (digest uint64, shard int) {
	shard, slot := st.l.shardOf(q.key)
	a := st.l.slotAddr(shard, slot)
	buf := st.ringBuf[:slotWords]
	switch q.kind {
	case opGet:
		st.m.ReadI64Block(a, buf)
		digest = foldSlot(buf, q.key)

	case opPut, opEvent:
		st.m.ReadI64Block(a, buf)
		term := loadgen.Mix64(q.key)
		if q.kind == opEvent {
			term = loadgen.Mix64(q.key ^ loadgen.Mix64(q.session))
		}
		buf[0] = int64(uint64(buf[0]) + term)
		buf[1]++
		buf[2] = int64(uint64(buf[2]) + q.session)
		st.m.WriteI64Block(a, buf)

	case opScan:
		first := slot - slot%scanSlots
		count := scanSlots
		if first+count > slotsPerShard {
			count = slotsPerShard - first
		}
		sbuf := st.ringBuf[:count*slotWords]
		st.m.ReadI64Block(st.l.slotAddr(shard, first), sbuf)
		for i := 0; i < count; i++ {
			digest += foldSlot(sbuf[i*slotWords:(i+1)*slotWords], q.key)
		}

	case opPush:
		st.m.ReadI64Block(a, buf)
		nts, nsess := q.arrival, q.session
		nval := loadgen.Mix64(q.key ^ q.arrival)
		if buf[3] == 0 {
			// First version of this entity: install, no loser.
			st.m.WriteI64Block(a, []int64{int64(nts), int64(nsess), int64(nval), 1})
			break
		}
		ots, osess, oval := uint64(buf[0]), uint64(buf[1]), uint64(buf[2])
		// Last-write-wins by (timestamp, session) — a total order, since
		// one session's pushes carry strictly increasing timestamps.
		var lts, lsess, lval uint64 // the losing version
		if nts > ots || (nts == ots && nsess > osess) {
			lts, lsess, lval = ots, osess, oval
			buf[0], buf[1], buf[2] = int64(nts), int64(nsess), int64(nval)
		} else {
			lts, lsess, lval = nts, nsess, nval
		}
		buf[3]++
		st.m.WriteI64Block(a, buf)
		st.recordLoser(lts, lsess, lval, q.key)

	case opPull:
		st.m.ReadI64Block(a, buf)
		digest = foldSlot(buf, q.key)
	}
	return digest, shard
}

// recordLoser preserves a displaced version: it lands in this node's
// bounded loser ring in shared memory (the sync client's "conflict
// copy") and folds into the commutative loser digest that joins the
// global checksum. The set of losers is order-independent — for any
// apply order, every version of an entity except the (ts, session)
// maximum loses exactly once.
func (st *nodeState) recordLoser(ts, sess, val, key uint64) {
	a := st.l.loserAddr(st.id) + memsim.Addr((st.loserCur%loserSlots)*slotWords*8)
	st.m.WriteI64Block(a, []int64{int64(ts), int64(sess), int64(val), int64(key)})
	st.loserCur++
	st.loserDigest += loadgen.Mix64(ts ^ loadgen.Mix64(sess) ^ val)
}

// foldSlot digests a slot read for the per-node op digest.
func foldSlot(buf []int64, key uint64) uint64 {
	h := loadgen.Mix64(key)
	for _, w := range buf {
		h = loadgen.Mix64(h ^ uint64(w))
	}
	return h
}
