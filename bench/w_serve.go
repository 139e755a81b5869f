package main

import (
	"bytes"
	"encoding/binary"

	irix "repro"
)

// serve_poll: a leader and four PR_SADDR|PR_SFDS members multiplex every
// connection through poll(2); four client processes hold a quarter of the
// connections each, send one request per connection and check the echo.
// Closed loop: all connections are opened before the first request, each
// carries exactly one request, and a client closes a connection only after
// its reply. op = one connection served.

const (
	serveConns   = 10000
	serveMembers = 4
	serveClients = 4
	serveMaxReq  = 256
	serveJobStop = ^uint32(0) // leader → member: no more descriptors
)

type serveInput struct {
	conns   int
	payload [][]byte // request per connection; first word is the connection id
}

func serveOps(scale float64) int64 {
	n := int(float64(serveConns)*scale) / serveClients * serveClients
	if n < 10*serveClients {
		n = 10 * serveClients
	}
	return int64(n)
}

func serveGen(seed uint64, scale float64) any {
	in := &serveInput{conns: int(serveOps(scale))}
	rnd := newRNG(seed, 1)
	in.payload = make([][]byte, in.conns)
	for i := range in.payload {
		b := make([]byte, 4+rnd.intn(serveMaxReq-3)) // 4..256 bytes
		binary.LittleEndian.PutUint32(b, uint32(i+1))
		for j := 4; j < len(b); j++ {
			b[j] = byte(rnd.next())
		}
		in.payload[i] = b
	}
	return in
}

func serveRun(r *rep) {
	in := r.in.(*serveInput)
	r.ops = int64(in.conns)
	cfg := r.config()
	// Every accepted descriptor stays in the shared table until a member
	// serves it, so the ceiling has to cover the whole connection load.
	cfg.MaxFiles = in.conns + serveMembers + 16
	sys := r.boot(cfg)
	sys.Start("serve-leader", func(c *irix.Ctx) {
		p := r.proc(c)
		r.begin(c)
		defer r.phase("bench.run")()
		serveLeader(p, in)
		r.end(c)
	})
	sys.WaitIdle()
	defer r.phase("bench.verify")()
	r.idle(sys)
}

func serveLeader(p *pc, in *serveInput) {
	r := p.r
	lfd, err := p.NetListen("serve")
	if err != nil {
		r.fail(r.ops, "listen: %v", err)
		return
	}
	jobR := make([]int, serveMembers)
	jobW := make([]int, serveMembers)
	for w := range jobR {
		rd, wr, err := p.Pipe()
		if err != nil {
			r.fail(r.ops, "pipe: %v", err)
			return
		}
		p.SetNonblock(rd, true) // members batch-drain their job pipe
		jobR[w], jobW[w] = rd, wr
	}
	// Members park until every stack is carved, so no member is faulting
	// while the leader is still inside sproc.
	pids := make([]int, serveMembers)
	for w := range pids {
		pid, err := p.Sproc("server", func(m *pc, id int64) {
			m.Blockproc()
			serveMember(m, jobR[id])
		}, irix.PRSADDR|irix.PRSFDS, int64(w))
		if err != nil {
			r.fail(r.ops, "sproc: %v", err)
			return
		}
		pids[w] = pid
	}
	for _, pid := range pids {
		p.Unblockproc(pid)
	}
	per := in.conns / serveClients
	for i := 0; i < serveClients; i++ {
		first := i * per
		if _, err := p.Fork("client", func(cl *pc) { serveClient(cl, in, first, per) }); err != nil {
			r.fail(int64(per), "fork client: %v", err)
		}
	}

	// Accept and deal descriptor numbers round-robin into the job pipes.
	// The leader cannot know which request a connection carries, so its
	// per-connection work is tagged with the shared op id.
	va := irix.VAddr(irix.DataBase)
	for i := 0; i < in.conns; i++ {
		p.opBegin(sharedOp)
		fd, err := p.NetAccept(lfd)
		if err != nil {
			r.fail(1, "accept %d: %v", i, err)
			p.opEnd()
			continue
		}
		p.Store32(va, uint32(fd))
		if _, err := p.Write(jobW[i%serveMembers], va, 4); err != nil {
			r.fail(1, "deal %d: %v", i, err)
		}
		p.opEnd()
	}
	for w := range jobW {
		p.Store32(va, serveJobStop)
		p.Write(jobW[w], va, 4)
	}
	for i := 0; i < serveMembers+serveClients; i++ {
		p.Wait()
	}
}

// serveMember polls its job pipe plus every connection it owns, batch-drains
// new descriptor numbers, and answers each readable connection with one
// read, one echo and a close.
func serveMember(p *pc, jobR int) {
	va := p.StackBase()
	job := va + 512
	set := []irix.PollFd{{Fd: jobR, Events: irix.PollIn}}
	draining := false
	for {
		if draining && len(set) == 1 {
			p.Close(jobR)
			return
		}
		p.opBegin(sharedOp)
		_, err := p.Poll(set)
		p.opEnd()
		if err != nil {
			p.r.fail(1, "member poll: %v", err)
			return
		}
		live := set[:1] // slot 0 is always the job pipe
		for _, pf := range set[1:] {
			if pf.Revents == 0 {
				live = append(live, irix.PollFd{Fd: pf.Fd, Events: irix.PollIn})
				continue
			}
			// This member is the connection's only reader, so the edge
			// cannot have been consumed and the read returns at once.
			p.opBegin(sharedOp)
			n, err := p.Read(pf.Fd, va, serveMaxReq)
			if err != nil || n < 4 {
				p.opEnd()
				live = append(live, irix.PollFd{Fd: pf.Fd, Events: irix.PollIn})
				continue
			}
			id, _ := p.Load32(va) // the request header names the connection
			p.opRetag(int64(id))
			p.Write(pf.Fd, va, n)
			p.Close(pf.Fd)
			p.opEnd()
		}
		set = live
		if set[0].Revents != 0 && !draining {
			p.opBegin(sharedOp)
			for {
				n, err := p.Read(jobR, job, 4)
				if err != nil || n != 4 {
					break // EAGAIN: batch drained
				}
				v, _ := p.Load32(job)
				if v == serveJobStop {
					draining = true
					break
				}
				set = append(set, irix.PollFd{Fd: int(v), Events: irix.PollIn})
			}
			p.opEnd()
		}
		set[0] = irix.PollFd{Fd: jobR, Events: irix.PollIn}
	}
}

// serveClient opens n connections starting at connection index first, sends
// each its request, then collects and checks the replies through its own
// poll loop. Every connection ends as exactly one of served or failed.
func serveClient(p *pc, in *serveInput, first, n int) {
	r := p.r
	va := irix.VAddr(irix.DataBase)
	reply := va + 1024
	fds := make([]int, n)
	for j := range fds {
		p.opBegin(int64(first + j + 1))
		fd, err := p.NetConnect("serve")
		p.opEnd()
		if err != nil {
			r.fail(int64(n), "connect %d: %v", first+j, err)
			return
		}
		fds[j] = fd
	}
	// All connections are open before the first request goes out, so the
	// server really holds them concurrently.
	set := make([]irix.PollFd, 0, n)
	conn := make(map[int]int, n) // descriptor → connection index
	got := make([][]byte, n)
	for j, fd := range fds {
		req := in.payload[first+j]
		p.opBegin(int64(first + j + 1))
		p.StoreBytes(va, req)
		_, err := p.Write(fd, va, len(req))
		p.SetNonblock(fd, true)
		p.opEnd()
		if err != nil {
			r.fail(1, "request %d: %v", first+j, err)
			p.Close(fd)
			continue
		}
		conn[fd] = j
		set = append(set, irix.PollFd{Fd: fd, Events: irix.PollIn})
	}
	buf := make([]byte, serveMaxReq)
	for len(set) > 0 {
		p.opBegin(sharedOp)
		_, err := p.Poll(set)
		p.opEnd()
		if err != nil {
			r.fail(int64(len(set)), "client poll: %v", err)
			return
		}
		live := set[:0]
		for _, pf := range set {
			if pf.Revents == 0 {
				live = append(live, irix.PollFd{Fd: pf.Fd, Events: irix.PollIn})
				continue
			}
			j := conn[pf.Fd]
			want := in.payload[first+j]
			p.opBegin(int64(first + j + 1))
			k, err := p.Read(pf.Fd, reply, serveMaxReq)
			if err != nil {
				// A spurious or consumed readiness edge: keep waiting.
				p.opEnd()
				live = append(live, irix.PollFd{Fd: pf.Fd, Events: irix.PollIn})
				continue
			}
			p.LoadBytes(reply, buf[:k])
			got[j] = append(got[j], buf[:k]...)
			if k > 0 && len(got[j]) < len(want) {
				p.opEnd()
				live = append(live, irix.PollFd{Fd: pf.Fd, Events: irix.PollIn})
				continue
			}
			if !bytes.Equal(got[j], want) {
				r.fail(1, "connection %d: reply of %d bytes does not echo the %d-byte request", first+j, len(got[j]), len(want))
			}
			p.Close(pf.Fd)
			p.opEnd()
		}
		set = live
	}
}
