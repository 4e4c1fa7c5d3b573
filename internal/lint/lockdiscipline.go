package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// lockdiscipline flags every operation that can park the goroutine for an
// unbounded time while a mutex is held — a channel send or receive, a
// select without a default, a range over a channel, sync.WaitGroup.Wait,
// or submitting to the shared exec pool (exec.Pool.Map/Admit/Close) —
// whether it sits lexically inside the locked region or at the end of a
// call chain out of it. Under a sync.Mutex or sync.RWMutex a slow consumer
// becomes a lock convoy, and against the exec pool's bounded queue a
// self-deadlock. Both kinds of site come from the function summaries
// (summary.go): a block site with a non-empty held set is reported where
// it stands, and a call made with a lock held is reported when its callee
// may block transitively. Copying lock-bearing values is go vet's
// copylocks check.
type lockDiscipline struct {
	ip *interp
}

// NewLockDiscipline returns the lock-discipline analyzer sharing ip's call
// graph.
func NewLockDiscipline(ip *interp) *Analyzer {
	ld := &lockDiscipline{ip: ip}
	return &Analyzer{
		Name:   "lockdiscipline",
		Doc:    "flag blocking operations (channel, defaultless select, WaitGroup.Wait, exec pool submit) under a mutex, directly or through any call chain",
		Run:    func(pass *Pass) { ld.ip.visit(pass) },
		Finish: ld.finish,
	}
}

func (ld *lockDiscipline) finish(report reportFunc) {
	ip := ld.ip
	ip.finish()
	for _, key := range ip.order {
		s := ip.funcs[key]
		// A call that is itself a block site (the exec pool's submit
		// family) is reported once, as the site.
		sites := map[token.Position]bool{}
		for _, b := range s.blocks {
			sites[b.pos] = true
			if len(b.held) == 0 {
				continue
			}
			held := make([]string, len(b.held))
			for i, h := range b.held {
				held[i] = fmt.Sprintf("%s (locked at line %d)", h.disp, h.pos.Line)
			}
			report(b.pos, "%s while holding %s: blocking under a mutex convoys every other locker", b.what, strings.Join(held, ", "))
		}
		for _, c := range s.calls {
			if len(c.held) == 0 || sites[c.pos] {
				continue
			}
			cs, ok := ip.funcs[c.callee]
			if !ok || cs.blockW == nil {
				continue
			}
			w := cs.blockW
			via := ""
			if len(w.chain) > 0 {
				via = " via " + strings.Join(w.chain, " → ")
			}
			report(c.pos, "%s held across call to %s, which may block on %s%s (%s:%d)", heldNames(c.held), c.disp, w.what, via, w.pos.Filename, w.pos.Line)
		}
	}
}

// heldNames renders the held-lock set for a message.
func heldNames(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.disp
	}
	return strings.Join(names, ", ")
}
