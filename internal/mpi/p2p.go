package mpi

import "msgroofline/internal/sim"

// Request is the handle of a nonblocking operation. Send requests
// complete as soon as the payload is buffered and injected (eager
// protocol); receive requests complete when a matching message has
// been delivered.
type Request struct {
	owner *Rank
	done  bool
	isRcv bool

	// match pattern (receives only)
	src, tag int

	// results, valid once done
	Data []byte
	Src  int
	Tag  int
	At   sim.Time // delivery time of the matched message
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// Isend starts an eager nonblocking send of data to dst with the
// given tag. The payload is copied, so the caller may reuse its
// buffer immediately. The returned request is already complete.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	// Self-sends are legal and ride the loopback (shared-memory) path
	// like any other same-node message.
	r.ep.ChargeOp(r.proc, r.comm.two)
	buf := make([]byte, len(data))
	copy(buf, data)
	target := r.comm.ranks[dst]
	src := r.id
	pr := r.peer(dst)
	seq := pr.sendSeq
	pr.sendSeq++
	issue := r.proc.Now()
	hook := r.comm.sendHook
	// Delivery mutates only target-rank state, so the whole callback
	// runs on the target's engine (the remote half of the split).
	r.ep.Inject(r.comm.two, dst, int64(len(buf)), r.ep.AutoChannel(), func(at sim.Time) {
		if hook != nil && tag >= 0 {
			hook(src, dst, int64(len(buf)), issue, at)
		}
		target.deliver(&envelope{src: src, tag: tag, seq: seq, data: buf, at: at})
	}, nil)
	return &Request{owner: r, done: true, Src: src, Tag: tag}
}

// Send is a blocking send; with the eager protocol it returns as soon
// as the message is injected (identical cost to Isend).
func (r *Rank) Send(dst, tag int, data []byte) { r.Isend(dst, tag, data) }

// Irecv posts a nonblocking receive matching (src, tag), where either
// may be AnySource/AnyTag. Matching follows MPI ordering: the oldest
// matching unexpected message wins, else the request queues in post
// order.
func (r *Rank) Irecv(src, tag int) *Request {
	r.ep.ChargeOp(r.proc, r.comm.two)
	req := &Request{owner: r, isRcv: true, src: src, tag: tag}
	if env := r.takeUnexpected(src, tag); env != nil {
		req.complete(env)
		return req
	}
	r.posted = append(r.posted, req)
	return req
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload and metadata.
func (r *Rank) Recv(src, tag int) *Request {
	req := r.Irecv(src, tag)
	r.Wait(req)
	return req
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req *Request) {
	if req.owner != r {
		panic("mpi: waiting on another rank's request")
	}
	r.arrived.WaitFor(r.proc, func() bool { return req.done })
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs []*Request) {
	r.arrived.WaitFor(r.proc, func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
}

// Probe blocks until a message matching (src, tag) is available
// without receiving it, and returns its source, tag and size.
func (r *Rank) Probe(src, tag int) (gotSrc, gotTag, size int) {
	var env *envelope
	r.arrived.WaitFor(r.proc, func() bool {
		env = r.peekUnexpected(src, tag)
		return env != nil
	})
	return env.src, env.tag, len(env.data)
}

// deliver runs in engine context when a message reaches this rank. It
// first restores per-(source, destination) send order — a retransmitted
// message may arrive after a later send from the same source — then
// admits in-order arrivals to the matching queue. On an in-order
// network every message is admitted as it arrives.
func (r *Rank) deliver(env *envelope) {
	if r.comm.debugUnordered {
		r.admit(env)
		return
	}
	p := r.peer(env.src)
	if env.seq != p.recvSeq {
		p.ooo = append(p.ooo, env)
		return
	}
	p.recvSeq++
	r.admit(env)
	for next := p.takeOutOfOrder(); next != nil; next = p.takeOutOfOrder() {
		p.recvSeq++
		r.admit(next)
	}
}

// takeOutOfOrder removes and returns the buffered arrival whose
// sequence is next in line, or nil.
func (p *peer) takeOutOfOrder() *envelope {
	for i, env := range p.ooo {
		if env.seq == p.recvSeq {
			p.ooo = append(p.ooo[:i], p.ooo[i+1:]...)
			return env
		}
	}
	return nil
}

// admit runs in engine context once an arrival is in order: match the
// oldest posted receive, or queue as unexpected.
func (r *Rank) admit(env *envelope) {
	for i, req := range r.posted {
		if req.matches(env) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			req.complete(env)
			r.arrived.Broadcast()
			return
		}
	}
	r.unexpected = append(r.unexpected, env)
	r.arrived.Broadcast()
}

// takeUnexpected removes and returns the oldest unexpected message
// matching (src, tag), or nil.
func (r *Rank) takeUnexpected(src, tag int) *envelope {
	for i, env := range r.unexpected {
		if matchPattern(src, tag, env) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

// peekUnexpected returns the oldest matching unexpected message
// without removing it.
func (r *Rank) peekUnexpected(src, tag int) *envelope {
	for _, env := range r.unexpected {
		if matchPattern(src, tag, env) {
			return env
		}
	}
	return nil
}

func (q *Request) matches(env *envelope) bool {
	return matchPattern(q.src, q.tag, env)
}

func matchPattern(src, tag int, env *envelope) bool {
	return (src == AnySource || src == env.src) &&
		(tag == AnyTag || tag == env.tag)
}

func (q *Request) complete(env *envelope) {
	q.done = true
	q.Data = env.data
	q.Src = env.src
	q.Tag = env.tag
	q.At = env.at
}
