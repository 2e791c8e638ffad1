package core

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Composer is the hook the RT miss handler calls for sequences that must be
// composed at fill time — the transparent-with-aware composition model of
// paper §3.3: aware productions live in the application's data segment, so
// the kernel cannot pre-compose them; instead composition runs on every
// aware production miss and composite productions exist in the RT only.
type Composer interface {
	// Compose transforms the virtual-store sequence fetched on an RT miss.
	// It returns the sequence to install and whether composition work was
	// actually performed (which raises the miss penalty).
	Compose(id int, r *Replacement) (*Replacement, bool)
}

// ComposerFunc adapts a function to the Composer interface.
type ComposerFunc func(id int, r *Replacement) (*Replacement, bool)

// Compose implements Composer.
func (f ComposerFunc) Compose(id int, r *Replacement) (*Replacement, bool) { return f(id, r) }

// Controller mediates all PT/RT manipulation. It owns the virtual production
// store — the PT and RT are caches over it — translates externally specified
// productions into engine form, and handles misses (paper §2.3).
type Controller struct {
	engine *Engine

	activeProds []*Production
	repls       map[int]*Replacement
	aware       map[int]bool // ids registered by InstallAware
	nextID      int

	composer Composer
	memo     map[int]*Replacement
}

// NewController creates a controller and its engine.
func NewController(cfg EngineConfig) *Controller {
	c := &Controller{
		repls:  map[int]*Replacement{},
		aware:  map[int]bool{},
		memo:   map[int]*Replacement{},
		nextID: 1,
	}
	c.engine = newEngine(cfg, c)
	return c
}

// Engine returns the controller's engine.
func (c *Controller) Engine() *Engine { return c.engine }

// InstallTransparent activates a transparent production: pattern -> repl.
func (c *Controller) InstallTransparent(name string, pat Pattern, repl *Replacement) (*Production, error) {
	if err := checkTransparent(name, repl); err != nil {
		return nil, err
	}
	id := c.nextID
	c.nextID++
	c.repls[id] = repl
	p := &Production{Name: name, Pattern: pat, Repl: repl, DictBase: id}
	c.activeProds = append(c.activeProds, p)
	c.engine.reset()
	return p, nil
}

// InstallAware activates an aware production whose trigger tag selects among
// dict. Dictionary entry i is reachable by triggers carrying tag i; the
// 11-bit tag limits a single pattern to 2048 entries (paper §2.1).
func (c *Controller) InstallAware(name string, pat Pattern, dict []*Replacement) (*Production, error) {
	if err := checkAware(name, dict); err != nil {
		return nil, err
	}
	base := c.nextID
	for i, r := range dict {
		c.repls[base+i] = r
		c.aware[base+i] = true
	}
	c.nextID = base + len(dict)
	p := &Production{Name: name, Pattern: pat, TagIndexed: true, DictBase: base}
	c.activeProds = append(c.activeProds, p)
	c.engine.reset()
	return p, nil
}

// checkTransparent returns the error InstallTransparent reports for repl,
// or nil if it would install.
func checkTransparent(name string, repl *Replacement) error {
	if repl == nil || len(repl.Insts) == 0 {
		return fmt.Errorf("dise: production %s: empty replacement", name)
	}
	return repl.Validate()
}

// checkAware returns the error InstallAware reports for dict, or nil if it
// would install.
func checkAware(name string, dict []*Replacement) error {
	if len(dict) == 0 {
		return fmt.Errorf("dise: production %s: empty dictionary", name)
	}
	if len(dict) > isa.MaxTag+1 {
		return fmt.Errorf("dise: production %s: %d entries exceed the %d expressible tags",
			name, len(dict), isa.MaxTag+1)
	}
	for i, r := range dict {
		if r == nil || len(r.Insts) == 0 {
			return fmt.Errorf("dise: production %s: dictionary entry %d empty", name, i)
		}
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Deactivate removes a production from the active set; its replacement
// sequences stay in the virtual store so it can be re-activated cheaply.
func (c *Controller) Deactivate(p *Production) {
	for i, q := range c.activeProds {
		if q == p {
			c.activeProds = append(c.activeProds[:i], c.activeProds[i+1:]...)
			c.engine.reset()
			return
		}
	}
}

// Activate re-activates a previously installed production.
func (c *Controller) Activate(p *Production) {
	for _, q := range c.activeProds {
		if q == p {
			return
		}
	}
	c.activeProds = append(c.activeProds, p)
	c.engine.reset()
}

// Productions returns the active productions, most recently installed last.
func (c *Controller) Productions() []*Production {
	return append([]*Production(nil), c.activeProds...)
}

// SetComposer installs the RT-miss-time composition hook and flushes the RT
// and the compose memo (the composed forms change).
func (c *Controller) SetComposer(comp Composer) {
	c.composer = comp
	c.memo = map[int]*Replacement{}
	c.engine.reset()
}

// seqID resolves the replacement-sequence identifier a PT match produces:
// the production's own identifier for transparent productions, or the
// dictionary base plus the trigger's tag for aware ones.
func (c *Controller) seqID(p *Production, trigger isa.Inst) int {
	if p.TagIndexed {
		return p.DictBase + int(trigger.Imm)
	}
	return p.DictBase
}

// fetchSequence services an RT miss from the virtual store, composing if a
// composer is installed. It reports whether composition work was done.
func (c *Controller) fetchSequence(id int) (*Replacement, bool) {
	r, ok := c.repls[id]
	if !ok {
		return nil, false
	}
	// Composition is invoked only on aware production misses (paper §3.3):
	// aware productions live in the application's data space, so they are
	// the ones the kernel could not pre-compose.
	if c.composer == nil || !c.aware[id] {
		return r, false
	}
	if m, ok := c.memo[id]; ok {
		// Re-composition runs on every miss; the result is deterministic so
		// the stored form is reused, but the caller still charges the
		// composition latency.
		return m, true
	}
	composed, did := c.composer.Compose(id, r)
	if !did {
		return r, false
	}
	c.memo[id] = composed
	return composed, true
}

// State is the architectural DISE state that the OS kernel preserves across
// context switches: the active production set (standing in for the pattern
// counter table; PT/RT contents are demand-loaded) — paper §2.3. The
// dedicated registers and DISEPC are saved by the emulator alongside the
// architectural register file.
type State struct {
	prods    []*Production
	composer Composer
}

// SaveState captures the active production set for a context switch.
func (c *Controller) SaveState() State {
	return State{prods: append([]*Production(nil), c.activeProds...), composer: c.composer}
}

// RestoreState reinstates a saved production set. The PT and RT are left to
// fault their contents back in, exactly as on real context-switch restore.
func (c *Controller) RestoreState(s State) {
	c.activeProds = append([]*Production(nil), s.prods...)
	c.composer = s.composer
	c.memo = map[int]*Replacement{}
	c.engine.reset()
}

// Describe renders the active productions for debugging.
func (c *Controller) Describe() string {
	out := ""
	prods := c.Productions()
	sort.Slice(prods, func(i, j int) bool { return prods[i].Name < prods[j].Name })
	for _, p := range prods {
		kind := "transparent"
		if p.TagIndexed {
			kind = "aware"
		}
		out += fmt.Sprintf("%s (%s): %s\n", p.Name, kind, p.Pattern.String())
		if p.Repl != nil {
			out += p.Repl.String()
		}
	}
	return out
}
