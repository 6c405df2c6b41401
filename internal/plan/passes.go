package plan

import (
	"fmt"
	"strings"

	"datachat/internal/skills"
)

// ---------------------------------------------------------------------------
// Slice: dead-step elimination (§2.3, Figure 5).

type slicePass struct{}

// SlicePass prunes every node the target does not depend on.
func SlicePass() Pass { return slicePass{} }

func (slicePass) Name() string { return "slice" }

func (slicePass) Run(p *Plan, env *Env, t *PassTrace) error {
	needed := map[int]bool{}
	var visit func(id int) error
	visit = func(id int) error {
		if needed[id] {
			return nil
		}
		n := p.Node(id)
		if n == nil {
			return fmt.Errorf("plan: unknown node %d", id)
		}
		needed[id] = true
		for _, in := range n.Inputs {
			if in.Node != External {
				if err := visit(in.Node); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit(p.Target); err != nil {
		return err
	}
	t.Pruned = len(p.Nodes) - len(needed)
	if t.Pruned > 0 {
		t.Fired = true
		for _, n := range p.Nodes {
			if !needed[n.ID] {
				t.Detail = append(t.Detail, fmt.Sprintf("prune %s#%d", n.Skill, n.ID))
			}
		}
		p.keep(needed)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fuse: adjacent-operator fusion. Consecutive same-skill steps that one
// invocation can express collapse on every execution, not only when slicing
// a recipe: consecutive KeepRows become one AND-ed filter, consecutive
// LimitRows keep the minimum, and a KeepColumns whose projection is a subset
// of its parent's replaces it outright.

type fusePass struct{}

// FusePass folds fusable parent/child pairs until a fixed point.
func FusePass() Pass { return fusePass{} }

func (fusePass) Name() string { return "fuse" }

func (fusePass) Run(p *Plan, env *Env, t *PassTrace) error {
	for changed := true; changed; {
		changed = false
		cons := p.Consumers()
		for _, child := range p.Nodes {
			if len(child.Inputs) != 1 || child.Inputs[0].Node == External {
				continue
			}
			parent := p.Node(child.Inputs[0].Node)
			if parent == nil || len(cons[parent.ID]) != 1 {
				continue
			}
			merged, ok := FuseArgs(child.Skill, parent, child)
			if !ok {
				continue
			}
			child.Args = merged
			child.Inputs = append([]Input{}, parent.Inputs...)
			child.Absorbed = append(child.Absorbed, parent.Absorbed...)
			child.Absorbed = append(child.Absorbed, parent.ID)
			p.remove(parent.ID)
			t.Merged++
			t.Detail = append(t.Detail, fmt.Sprintf("%s#%d absorbs #%d", child.Skill, child.ID, parent.ID))
			changed = true
			break // the node list mutated; restart the scan
		}
	}
	t.Fired = t.Merged > 0
	return nil
}

// FuseArgs folds a parent step into its same-skill child when one invocation
// can express both, returning the combined arguments. It is the single home
// of the fusion rules formerly duplicated inside dag.Slice; because fusion
// runs before fingerprinting, a pre-merged recipe step and the live chain it
// came from normalize to the same fingerprint.
func FuseArgs(skill string, parent, child *Node) (skills.Args, bool) {
	if !strings.EqualFold(parent.Skill, child.Skill) {
		return nil, false
	}
	switch strings.ToLower(skill) {
	case "keeprows":
		p, err1 := parent.Args.String("condition")
		c, err2 := child.Args.String("condition")
		if err1 != nil || err2 != nil {
			return nil, false
		}
		return skills.Args{"condition": "(" + p + ") AND (" + c + ")"}, true
	case "limitrows":
		p, err1 := parent.Args.Int("count")
		c, err2 := child.Args.Int("count")
		if err1 != nil || err2 != nil {
			return nil, false
		}
		if c < p {
			p = c
		}
		return skills.Args{"count": p}, true
	case "keepcolumns":
		// The child's projection wins, but only when it is a subset of the
		// parent's: sequential execution rejects a projection of columns the
		// parent already dropped, and fusion must not mask that error.
		pc, err1 := parent.Args.StringList("columns")
		cc, err2 := child.Args.StringList("columns")
		if err1 != nil || err2 != nil {
			return nil, false
		}
		have := make(map[string]bool, len(pc))
		for _, col := range pc {
			have[strings.ToLower(col)] = true
		}
		for _, col := range cc {
			if !have[strings.ToLower(col)] {
				return nil, false
			}
		}
		return skills.Args{"columns": cc}, true
	default:
		return nil, false
	}
}

// ---------------------------------------------------------------------------
// Cache probe: walk down from the target and pin nodes whose canonical key
// is already cached, pruning everything only reachable below a hit — the
// recursive executor's short-circuit, now a pass.

type cacheProbePass struct{}

// CacheProbePass marks plan-time cache hits (requires the fingerprint pass).
func CacheProbePass() Pass { return cacheProbePass{} }

func (cacheProbePass) Name() string { return "cache-probe" }

func (cacheProbePass) Run(p *Plan, env *Env, t *PassTrace) error {
	if env.CacheGet == nil {
		return nil
	}
	visited := map[int]bool{}
	var visit func(id int)
	visit = func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		n := p.Node(id)
		if n.Key != "" {
			if res, ok := env.CacheGet(n.Key); ok {
				n.Cached = true
				n.Pinned = res
				t.CacheHits++
				t.Detail = append(t.Detail, fmt.Sprintf("hit %s#%d", n.Skill, n.ID))
				return // ancestors are not needed
			}
		}
		for _, in := range n.Inputs {
			if in.Node != External {
				visit(in.Node)
			}
		}
	}
	visit(p.Target)
	if len(visited) < len(p.Nodes) {
		t.Pruned = len(p.Nodes) - len(visited)
		p.keep(visited)
	}
	t.Fired = t.CacheHits > 0
	return nil
}

// ---------------------------------------------------------------------------
// Consolidate: fold maximal relational chains into single SQL fragments
// (§2.2, Figure 4). A chain is a run of mergeable single-input nodes where
// each interior node has exactly one consumer; it stops at a plan-time cache
// hit so the cached prefix is reused as the base instead of being refolded.

type consolidatePass struct{}

// ConsolidatePass emits SQL fragments (requires Env.Lookup).
func ConsolidatePass() Pass { return consolidatePass{} }

func (consolidatePass) Name() string { return "consolidate" }

func (consolidatePass) Run(p *Plan, env *Env, t *PassTrace) error {
	if env.Lookup == nil {
		return nil
	}
	cons := p.Consumers()
	inFragment := map[int]bool{}
	// Walk tails-first so each fragment claims its maximal chain before any
	// interior node is considered as a tail itself.
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		tail := p.Nodes[i]
		if inFragment[tail.ID] || tail.Cached || !tail.Mergeable || len(tail.Inputs) != 1 {
			continue
		}
		chain := []int{tail.ID}
		cur := tail
		for {
			in := cur.Inputs[0]
			if in.Node == External {
				break
			}
			parent := p.Node(in.Node)
			if !parent.Mergeable || len(parent.Inputs) != 1 {
				break
			}
			if len(cons[parent.ID]) != 1 {
				break // shared sub-DAG: materialize the parent for everyone
			}
			if parent.Cached {
				break // cached prefix: build on top of it
			}
			chain = append(chain, parent.ID)
			cur = parent
		}
		for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
			chain[a], chain[b] = chain[b], chain[a]
		}
		head := p.Node(chain[0])
		frag := Fragment{Nodes: chain, Base: head.Inputs[0]}
		frag.Builder = skills.NewQueryBuilder(frag.Base.Name)
		for _, id := range chain {
			n := p.Node(id)
			def, err := env.Lookup(n.Skill)
			if err != nil {
				return fmt.Errorf("plan: node %d: %w", id, err)
			}
			if err := def.MergeSQL(frag.Builder, n.Invocation()); err != nil {
				return fmt.Errorf("plan: consolidating node %d (%s): %w", id, n.Skill, err)
			}
			inFragment[id] = true
			frag.DagNodes += 1 + len(n.Absorbed)
		}
		frag.SQL = frag.Builder.SQL()
		frag.Blocks = frag.Builder.Blocks()
		p.Fragments = append(p.Fragments, frag)
		t.Chains++
		t.NodesConsolidated += frag.DagNodes
		t.Detail = append(t.Detail, fmt.Sprintf("chain of %d ending at #%d", len(chain), tail.ID))
	}
	// Fragments were collected tails-first; report them in execution order.
	for a, b := 0, len(p.Fragments)-1; a < b; a, b = a+1, b-1 {
		p.Fragments[a], p.Fragments[b] = p.Fragments[b], p.Fragments[a]
	}
	t.Fired = t.Chains > 0
	return nil
}

// ---------------------------------------------------------------------------
// Pushdown: copy a scan's sole consumer's projection or filter into the scan
// itself (§3), so sampling and snapshot reads fetch fewer columns and rows.
// The consumer stays in place — re-projecting or re-filtering is idempotent —
// so the rewrite can never change results, only shrink intermediates.

type pushdownPass struct{}

// PushdownPass injects "columns"/"condition" into scan nodes that declare
// them as optional parameters (requires Env.Lookup).
func PushdownPass() Pass { return pushdownPass{} }

func (pushdownPass) Name() string { return "pushdown" }

func (pushdownPass) Run(p *Plan, env *Env, t *PassTrace) error {
	if env.Lookup == nil {
		return nil
	}
	cons := p.Consumers()
	for _, scan := range p.Nodes {
		if scan.Cached {
			continue
		}
		def, err := env.Lookup(scan.Skill)
		if err != nil {
			return fmt.Errorf("plan: node %d: %w", scan.ID, err)
		}
		accepts := map[string]bool{}
		for _, ps := range def.Params {
			if !ps.Required && (ps.Name == "columns" || ps.Name == "condition") {
				accepts[ps.Name] = true
			}
		}
		if len(accepts) == 0 {
			continue
		}
		ids := cons[scan.ID]
		if len(ids) != 1 {
			continue // a shared scan must stay whole for its other consumers
		}
		consumer := p.Node(ids[0])
		var param string
		var value any
		switch strings.ToLower(consumer.Skill) {
		case "keepcolumns":
			param = "columns"
			cols, err := consumer.Args.StringList("columns")
			if err != nil {
				continue
			}
			value = cols
		case "keeprows":
			param = "condition"
			cond, err := consumer.Args.String("condition")
			if err != nil {
				continue
			}
			value = cond
		default:
			continue
		}
		if !accepts[param] {
			continue
		}
		// Never mix pushed arguments with user-written ones: the scan applies
		// condition before columns, which only mirrors sequential execution
		// when at most one of them is present.
		if _, exists := scan.Args["condition"]; exists {
			continue
		}
		if _, exists := scan.Args["columns"]; exists {
			continue
		}
		// Copy-on-write: the lowered Args map is shared with the graph.
		args := make(skills.Args, len(scan.Args)+1)
		for k, v := range scan.Args {
			args[k] = v
		}
		args[param] = value
		scan.Args = args
		// The fingerprint pass keyed the scan by its unfiltered result; a
		// filtered scan stored under that key would serve the next request
		// another consumer's rows. The rewritten scan stays uncached. The
		// consumer's key still names its result, which pushdown never changes.
		scan.Key = ""
		scan.Pushdown = append(scan.Pushdown, param)
		t.Pushdowns++
		t.Detail = append(t.Detail, fmt.Sprintf("%s into %s#%d from %s#%d",
			param, scan.Skill, scan.ID, consumer.Skill, consumer.ID))
	}
	t.Fired = t.Pushdowns > 0
	return nil
}
