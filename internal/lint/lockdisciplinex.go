package lint

import "strings"

// lockdisciplinex is the transitive extension of lockdiscipline: it flags
// a blocking operation — channel op, defaultless select, WaitGroup.Wait,
// exec pool submission — reached through ANY call chain while a mutex is
// held, where the intraprocedural fast path only sees the operation when
// it sits lexically inside the locked region. The fast path stays
// authoritative for direct violations: this analyzer reports held-at call
// sites whose callee may transitively block, skipping direct calls into
// the exec pool's submit family that the fast path already flags.
type lockDisciplineX struct {
	ip *interp
}

// NewLockDisciplineX returns the transitive lock-discipline analyzer
// sharing ip's call graph.
func NewLockDisciplineX(ip *interp) *Analyzer {
	lx := &lockDisciplineX{ip: ip}
	return &Analyzer{
		Name:   "lockdisciplinex",
		Doc:    "flag blocking operations reached through any call chain while a mutex is held (transitive lockdiscipline)",
		Run:    func(pass *Pass) { lx.ip.visit(pass) },
		Finish: lx.finish,
	}
}

func (lx *lockDisciplineX) finish(report reportFunc) {
	ip := lx.ip
	ip.finish()
	for _, key := range ip.order {
		s := ip.funcs[key]
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			cs, ok := ip.funcs[c.callee]
			if !ok || cs.fastPathBlock || cs.blockW == nil {
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
