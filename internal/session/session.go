// Package session implements §2.4's collaboration model: sessions own a
// skill DAG and a context, hold a session-level lock that fails concurrent
// requests (the second request loses, with a message), track members with
// access levels, and save artifacts by slicing the session DAG down to the
// steps that produced them. It also provides the Home Screen folder tree
// and Insights Boards.
//
// The §2.4 lock serializes requests *within* one session; distinct sessions
// on a shared platform execute truly in parallel — each request's DAG
// branches run on the executor's worker pool, and the platform-wide sub-DAG
// cache deduplicates identical computations across sessions.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"datachat/internal/artifact"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/plan"
	"datachat/internal/recipe"
	"datachat/internal/skills"
)

// ErrBusy is returned when a request arrives while another is executing —
// the paper's explicit design choice over merging concurrent edits.
var ErrBusy = errors.New("session: another execution is already running; retry when it finishes")

// Session is one user workspace: a context, a DAG, and collaborators.
type Session struct {
	// Name identifies the session.
	Name string
	// Owner is the creating user.
	Owner string

	reg      *skills.Registry
	executor *dag.Executor
	graph    *dag.Graph

	// lock is the §2.4 session lock: held while its one slot is full.
	// Blocked senders are served in arrival order, so requests waiting for
	// it are handed the lock first come, first served as it is released.
	lock chan struct{}

	mu      sync.Mutex
	members map[string]artifact.Access
	history []HistoryEntry
	// lockWait is how long a request waits for a held lock before failing
	// with ErrBusy. 0 keeps the paper's fail-fast semantics: the second
	// concurrent request loses immediately.
	lockWait time.Duration
}

// HistoryEntry records one executed request, so every member sees the same
// synchronized view of the work (§2.4: actions are tracked in the platform,
// not the client).
type HistoryEntry struct {
	User  string
	Node  dag.NodeID
	GEL   string
	When  time.Time
	Error string
}

// New creates a session owned by owner.
func New(name, owner string, reg *skills.Registry, ctx *skills.Context) *Session {
	return &Session{
		Name:     name,
		Owner:    owner,
		reg:      reg,
		executor: dag.NewExecutor(reg, ctx),
		graph:    dag.NewGraph(),
		lock:     make(chan struct{}, 1),
		members:  map[string]artifact.Access{owner: artifact.OwnerAccess},
	}
}

// Executor exposes the session's executor (benchmarks and the console use
// its stats and cache controls).
func (s *Session) Executor() *dag.Executor { return s.executor }

// Graph exposes the session DAG.
func (s *Session) Graph() *dag.Graph { return s.graph }

// Context returns the session's execution context.
func (s *Session) Context() *skills.Context { return s.executor.Ctx }

// Share grants a user access to the session.
func (s *Session) Share(byUser, withUser string, access artifact.Access) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[byUser] < artifact.OwnerAccess {
		return fmt.Errorf("session: %s cannot share %q", byUser, s.Name)
	}
	if access != artifact.ViewAccess && access != artifact.EditAccess {
		return fmt.Errorf("session: can only grant view or edit")
	}
	s.members[withUser] = access
	return nil
}

// Revoke removes a member.
func (s *Session) Revoke(byUser, fromUser string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[byUser] < artifact.OwnerAccess {
		return fmt.Errorf("session: %s cannot revoke members", byUser)
	}
	if s.members[fromUser] >= artifact.OwnerAccess {
		return fmt.Errorf("session: cannot revoke the owner")
	}
	delete(s.members, fromUser)
	return nil
}

// AccessOf returns a user's access level.
func (s *Session) AccessOf(user string) artifact.Access {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members[user]
}

// Members lists session members, sorted.
func (s *Session) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SetLockWait opts the session into waiting on lock contention: a request
// that finds another one running queues for up to d, first come first
// served, instead of failing immediately. 0 (the default) preserves the
// paper's §2.4 fail-fast semantics.
func (s *Session) SetLockWait(d time.Duration) {
	s.mu.Lock()
	s.lockWait = d
	s.mu.Unlock()
}

// checkEdit fails unless user may run requests in the session.
func (s *Session) checkEdit(user string) error {
	if s.AccessOf(user) < artifact.EditAccess {
		return fmt.Errorf("session: %s cannot run requests in %q", user, s.Name)
	}
	return nil
}

// lockForUser acquires the §2.4 session lock for user. A held lock fails
// with ErrBusy at once, or after waiting up to wait (the session's standing
// lock wait when wait is 0); a done ctx fails the call with its error,
// before acquiring or while waiting. A
// permission error is returned before any waiting, and membership is
// checked again once the lock is handed over, so a user revoked while
// queued is refused and the lock passes on to the next waiter. Every
// operation that executes on the session's executor — requests, artifact
// saves, recipe replays — funnels through here, so executor state is never
// touched by two operations at once. Callers must pair it with unlock.
func (s *Session) lockForUser(ctx context.Context, user string, wait time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.checkEdit(user); err != nil {
		return err
	}
	if wait <= 0 {
		s.mu.Lock()
		wait = s.lockWait
		s.mu.Unlock()
	}
	select {
	case s.lock <- struct{}{}:
	default:
		if wait <= 0 {
			return ErrBusy
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case s.lock <- struct{}{}:
		case <-timer.C:
			return ErrBusy
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := s.checkEdit(user); err != nil {
		s.unlock()
		return err
	}
	return nil
}

func (s *Session) unlock() { <-s.lock }

// Request executes one skill invocation for user. It enforces membership
// (edit access) and the session-level lock: if another request is running,
// it fails immediately with ErrBusy rather than queueing, because a request
// composed against a stale view may no longer make sense (§2.4) — unless
// SetLockWait opted the session into a bounded wait on contention.
func (s *Session) Request(user string, inv skills.Invocation) (*skills.Result, dag.NodeID, error) {
	res, ids, err := s.RequestProgram(user, inv)
	if len(ids) == 0 {
		return nil, -1, err
	}
	return res, ids[0], err
}

// Tuning carries per-request execution options. The network layer builds one
// per HTTP request (deadline header, retry policy, clock) and the session
// applies it to its executor under the session lock — the §2.4 lock already
// guarantees one execution at a time, so the options swap cannot race with a
// concurrent Run on the same executor. Zero-valued fields leave the
// executor's standing configuration untouched.
type Tuning struct {
	// Deadline bounds the request's total (virtual) execution time;
	// 0 keeps the executor's configured deadline.
	Deadline time.Duration
	// Retry overrides the transient-failure retry policy when enabled.
	Retry faults.RetryPolicy
	// Clock drives backoff and deadline checks when non-nil.
	Clock faults.Clock
	// Stream, when non-nil, receives the request's target result chunk by
	// chunk as the engine produces it (see dag.ExecOptions.Stream);
	// StreamChunkRows bounds rows per chunk.
	Stream          func(chunk *dataset.Table) error
	StreamChunkRows int
	// StreamParallelism, StreamMaxBufferedRows, and StreamSpillDir tune the
	// morsel pipeline inside the request's streamed target fragment (see
	// dag.ExecOptions). Zero values keep the executor's standing settings.
	StreamParallelism     int
	StreamMaxBufferedRows int
	StreamSpillDir        string
	// StreamStats, when non-nil, receives this request's execution-stats
	// delta after the run (streamed chunk/row counts, spill activity). The
	// PeakBufferedRows field is the executor's buffered-row high-water mark
	// as of this request, not a per-request delta.
	StreamStats func(dag.Stats)
	// CostBudgetBytes caps this request's estimated cloud scan bytes: past
	// it the planner substitutes block samples for the most expensive scans
	// and the result comes back annotated Degraded (never cached). 0 keeps
	// the executor's standing budget.
	CostBudgetBytes int64
	// PlanCost, when non-nil, receives the compiled plan's cost estimate
	// after the run (estimation must be enabled on the executor; the
	// callback is skipped when no estimate was produced).
	PlanCost func(plan.PlanCost)
	// LockWait, when > 0, overrides the session's standing lock wait for
	// this call's §2.4 lock acquisition only. Background scheduled refreshes
	// use a short wait so a held lock makes them skip, not queue
	// indefinitely.
	LockWait time.Duration
}

// lockWait is the tuning's lock-wait override; a nil tuning has none.
func (t *Tuning) lockWait() time.Duration {
	if t == nil {
		return 0
	}
	return t.LockWait
}

// applyTuningLocked applies tune to the executor and returns a restore
// function that fires the post-run callbacks (StreamStats delta, PlanCost)
// and reinstates the standing options. Both this call and the returned
// function must run while the session lock is held: the §2.4
// lock guarantees no other execution reads the options concurrently.
func (s *Session) applyTuningLocked(tune *Tuning) func() {
	if tune == nil {
		return func() {}
	}
	saved := s.executor.Options
	if tune.Deadline > 0 {
		s.executor.Options.Deadline = tune.Deadline
	}
	if tune.Retry.Enabled() {
		s.executor.Options.Retry = tune.Retry
	}
	if tune.Clock != nil {
		s.executor.Options.Clock = tune.Clock
	}
	if tune.Stream != nil {
		s.executor.Options.Stream = tune.Stream
		s.executor.Options.StreamChunkRows = tune.StreamChunkRows
	}
	if tune.StreamParallelism != 0 {
		s.executor.Options.StreamParallelism = tune.StreamParallelism
	}
	if tune.StreamMaxBufferedRows > 0 {
		s.executor.Options.StreamMaxBufferedRows = tune.StreamMaxBufferedRows
	}
	if tune.StreamSpillDir != "" {
		s.executor.Options.StreamSpillDir = tune.StreamSpillDir
	}
	if tune.CostBudgetBytes > 0 {
		s.executor.Options.CostBudgetBytes = tune.CostBudgetBytes
	}
	// The session lock serializes executions, so a before/after snapshot of
	// the shared counters isolates this request's delta.
	var before dag.Stats
	if tune.StreamStats != nil {
		before = s.executor.Stats()
	}
	return func() {
		if tune.StreamStats != nil {
			after := s.executor.Stats()
			tune.StreamStats(dag.Stats{
				StreamedChunks:   after.StreamedChunks - before.StreamedChunks,
				StreamedRows:     after.StreamedRows - before.StreamedRows,
				SpillRuns:        after.SpillRuns - before.SpillRuns,
				SpilledRows:      after.SpilledRows - before.SpilledRows,
				SpilledBytes:     after.SpilledBytes - before.SpilledBytes,
				PeakBufferedRows: after.PeakBufferedRows,
				StreamWorkers:    after.StreamWorkers,
			})
		}
		if tune.PlanCost != nil {
			if pc := s.executor.LastPlanCost(); pc != nil {
				tune.PlanCost(*pc)
			}
		}
		s.executor.Options = saved
	}
}

// RequestProgram executes a multi-step program under one acquisition of the
// session lock: all steps are appended to the session DAG, the final step is
// planned and run as one unit (earlier steps execute as its ancestors), and
// every step is recorded in the history. This is the shared entry point the
// front ends funnel through — a GEL program, a pyapi script, and a replayed
// recipe describing the same pipeline lower into identical logical plans and
// therefore share sub-DAG cache entries.
func (s *Session) RequestProgram(user string, invs ...skills.Invocation) (*skills.Result, []dag.NodeID, error) {
	return s.RequestProgramCtx(context.Background(), user, nil, invs...)
}

// RequestProgramCtx is RequestProgram with an explicit context and optional
// per-request tuning. Cancelling ctx ends a wait for the session lock and
// the execution's own retry backoffs; tune (may be nil)
// overrides the executor's deadline, retry policy, and clock for this
// request only, restored before the lock is released.
func (s *Session) RequestProgramCtx(ctx context.Context, user string, tune *Tuning, invs ...skills.Invocation) (*skills.Result, []dag.NodeID, error) {
	if len(invs) == 0 {
		return nil, nil, fmt.Errorf("session: empty program")
	}
	if err := s.lockForUser(ctx, user, tune.lockWait()); err != nil {
		return nil, nil, err
	}
	defer s.unlock()
	restore := s.applyTuningLocked(tune)
	defer restore()

	ids := make([]dag.NodeID, len(invs))
	entries := make([]HistoryEntry, len(invs))
	for i, inv := range invs {
		ids[i] = s.graph.Add(inv)
		gelLine, gerr := s.reg.RenderGEL(inv)
		if gerr != nil {
			gelLine = inv.Skill
		}
		entries[i] = HistoryEntry{User: user, Node: ids[i], GEL: gelLine, When: time.Now()}
	}
	res, err := s.executor.RunContext(ctx, s.graph, ids[len(ids)-1])
	if err != nil {
		entries[len(entries)-1].Error = err.Error()
	}
	s.mu.Lock()
	s.history = append(s.history, entries...)
	s.mu.Unlock()
	if err != nil {
		return nil, ids, err
	}
	return res, ids, nil
}

// Explain compiles — without executing — the plan for the node producing the
// named dataset ("" means the session's latest step) and returns the EXPLAIN
// report.
func (s *Session) Explain(output string) (*plan.Explain, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.graph.Last()
	if output != "" {
		id, ok := s.graph.ProducerOf(output)
		if !ok {
			return nil, fmt.Errorf("session: no step in %q produces %q", s.Name, output)
		}
		target = id
	}
	if target < 0 {
		return nil, fmt.Errorf("session: %q has no steps to explain", s.Name)
	}
	return s.executor.Explain(s.graph, target)
}

// History returns the synchronized request log.
func (s *Session) History() []HistoryEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]HistoryEntry{}, s.history...)
}

// ReplayRecipe re-executes a recipe on the session's executor under the
// §2.4 lock (invalidate drops the sub-DAG cache first so changed source
// data is re-read). Funneling replays through the lock keeps them from
// racing concurrent requests on the same executor.
func (s *Session) ReplayRecipe(ctx context.Context, user string, r *recipe.Recipe, invalidate bool) (*skills.Result, error) {
	if err := s.lockForUser(ctx, user, 0); err != nil {
		return nil, err
	}
	defer s.unlock()
	return r.Replay(s.executor, invalidate)
}

// ReplayRecipePlanned is the scheduler's incremental-refresh entry point.
// Under ONE acquisition of the §2.4 lock (honoring tune.LockWait, so a
// busy session makes a background run skip rather than queue) it first
// EXPLAINs the recipe's plan — read-only, zero execution; the per-node
// Cached flags show which sub-DAGs the coming replay will serve from cache
// — and then replays WITHOUT invalidation: sources whose content
// fingerprints are unchanged keep their cache keys, so their sub-DAGs
// cache-hit with zero cloud scans, and only changed inputs recompute. It
// returns the result, the pre-run explain (for fingerprint diffing against
// the previous run), and this call's execution-stats delta.
func (s *Session) ReplayRecipePlanned(ctx context.Context, user string, r *recipe.Recipe, tune *Tuning) (*skills.Result, *plan.Explain, dag.Stats, error) {
	if err := s.lockForUser(ctx, user, tune.lockWait()); err != nil {
		return nil, nil, dag.Stats{}, err
	}
	defer s.unlock()
	restore := s.applyTuningLocked(tune)
	defer restore()

	g := r.Graph()
	last := g.Last()
	if last < 0 {
		return nil, nil, dag.Stats{}, fmt.Errorf("session: recipe %q has no steps", r.Name)
	}
	exp, err := s.executor.Explain(g, last)
	if err != nil {
		return nil, nil, dag.Stats{}, fmt.Errorf("session: planning recipe %q: %w", r.Name, err)
	}
	before := s.executor.Stats()
	res, err := s.executor.RunContext(ctx, g, last)
	delta := execStatsDelta(before, s.executor.Stats())
	if err != nil {
		return nil, exp, delta, err
	}
	return res, exp, delta, nil
}

// execStatsDelta subtracts two executor snapshots field by field; the
// high-water mark and gauge fields keep their "after" values (they are not
// sums).
func execStatsDelta(before, after dag.Stats) dag.Stats {
	return dag.Stats{
		TasksRun:          after.TasksRun - before.TasksRun,
		SQLTasks:          after.SQLTasks - before.SQLTasks,
		DirectTasks:       after.DirectTasks - before.DirectTasks,
		NodesConsolidated: after.NodesConsolidated - before.NodesConsolidated,
		QueryBlocks:       after.QueryBlocks - before.QueryBlocks,
		RowsMaterialized:  after.RowsMaterialized - before.RowsMaterialized,
		CacheHits:         after.CacheHits - before.CacheHits,
		CacheMisses:       after.CacheMisses - before.CacheMisses,
		Retries:           after.Retries - before.Retries,
		PermanentFailures: after.PermanentFailures - before.PermanentFailures,
		Degraded:          after.Degraded - before.Degraded,
		StreamedChunks:    after.StreamedChunks - before.StreamedChunks,
		StreamedRows:      after.StreamedRows - before.StreamedRows,
		SpillRuns:         after.SpillRuns - before.SpillRuns,
		SpilledRows:       after.SpilledRows - before.SpilledRows,
		SpilledBytes:      after.SpilledBytes - before.SpilledBytes,
		PeakBufferedRows:  after.PeakBufferedRows,
		StreamWorkers:     after.StreamWorkers,
	}
}

// SaveArtifact slices the session DAG to the steps node depends on and
// persists the result as an artifact carrying that recipe (§2.3). The
// producing step re-executes under the §2.4 lock (usually a pure cache
// republish).
func (s *Session) SaveArtifact(store *artifact.Store, user, name string, node dag.NodeID, typ artifact.Type) (*artifact.Artifact, error) {
	if s.AccessOf(user) < artifact.EditAccess {
		return nil, fmt.Errorf("session: %s cannot save artifacts from %q", user, s.Name)
	}
	if err := s.lockForUser(context.Background(), user, 0); err != nil {
		return nil, err
	}
	defer s.unlock()
	return s.saveLocked(store, user, name, node, typ)
}

// SaveArtifactOutput saves the step producing the named dataset, or the
// session's latest step when output is "". The anchor node is resolved after
// the §2.4 lock is acquired, so a concurrent request appending steps cannot
// move it between resolution and the save — remote callers go through here
// instead of reading the graph themselves.
func (s *Session) SaveArtifactOutput(store *artifact.Store, user, name, output string, typ artifact.Type) (*artifact.Artifact, error) {
	if s.AccessOf(user) < artifact.EditAccess {
		return nil, fmt.Errorf("session: %s cannot save artifacts from %q", user, s.Name)
	}
	if err := s.lockForUser(context.Background(), user, 0); err != nil {
		return nil, err
	}
	defer s.unlock()
	node := s.graph.Last()
	if output != "" {
		id, ok := s.graph.ProducerOf(output)
		if !ok {
			return nil, fmt.Errorf("session: no step in %q produces %q", s.Name, output)
		}
		node = id
	}
	if node < 0 {
		return nil, fmt.Errorf("session: %q has no steps to save", s.Name)
	}
	return s.saveLocked(store, user, name, node, typ)
}

// saveLocked does the slice-replay-persist work; callers hold the §2.4 lock.
func (s *Session) saveLocked(store *artifact.Store, user, name string, node dag.NodeID, typ artifact.Type) (*artifact.Artifact, error) {
	sliced, _, err := dag.Slice(s.graph, node)
	if err != nil {
		return nil, err
	}
	rec, err := recipe.FromGraph(name, sliced)
	if err != nil {
		return nil, err
	}
	res, err := s.executor.Run(s.graph, node)
	if err != nil {
		return nil, err
	}
	a := &artifact.Artifact{
		Name:         name,
		Type:         typ,
		Owner:        user,
		Recipe:       rec,
		Table:        res.Table,
		Degraded:     res.Degraded,
		DegradedNote: res.DegradedNote,
	}
	if len(res.Charts) > 0 {
		a.Chart = res.Charts[0]
		if typ == "" {
			a.Type = artifact.TypeChart
		}
	}
	if res.Model != nil {
		a.ModelName = res.Model.Kind()
		a.Explanation = res.Model.Explain()
		if typ == "" {
			a.Type = artifact.TypeModel
		}
	}
	if a.Type == "" {
		a.Type = artifact.TypeTable
	}
	if res.Message != "" {
		a.Explanation = res.Message
	}
	if err := store.Save(a); err != nil {
		return nil, err
	}
	return a, nil
}

// Folder is a Home Screen container: it holds artifact names and child
// folders, and is itself manageable like an artifact (§2.4).
type Folder struct {
	Name     string
	Items    []string
	Children map[string]*Folder
}

// HomeScreen is the file-manager-like organizer of §2.4.
type HomeScreen struct {
	mu   sync.Mutex
	root *Folder
}

// NewHomeScreen returns an empty home screen.
func NewHomeScreen() *HomeScreen {
	return &HomeScreen{root: &Folder{Name: "/", Children: map[string]*Folder{}}}
}

// MkDir creates a folder at the /-separated path.
func (h *HomeScreen) MkDir(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.ensure(path)
	return err
}

func (h *HomeScreen) ensure(path string) (*Folder, error) {
	cur := h.root
	for _, part := range splitPath(path) {
		child, ok := cur.Children[part]
		if !ok {
			child = &Folder{Name: part, Children: map[string]*Folder{}}
			cur.Children[part] = child
		}
		cur = child
	}
	return cur, nil
}

func (h *HomeScreen) lookup(path string) (*Folder, error) {
	cur := h.root
	for _, part := range splitPath(path) {
		child, ok := cur.Children[part]
		if !ok {
			return nil, fmt.Errorf("session: no folder %q", path)
		}
		cur = child
	}
	return cur, nil
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Place puts an artifact name into a folder (creating the folder).
func (h *HomeScreen) Place(path, artifactName string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.ensure(path)
	if err != nil {
		return err
	}
	for _, existing := range folder.Items {
		if existing == artifactName {
			return nil
		}
	}
	folder.Items = append(folder.Items, artifactName)
	return nil
}

// ListFolder returns a folder's items and child folder names, sorted.
func (h *HomeScreen) ListFolder(path string) (items, children []string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.lookup(path)
	if err != nil {
		return nil, nil, err
	}
	items = append([]string{}, folder.Items...)
	sort.Strings(items)
	for name := range folder.Children {
		children = append(children, name)
	}
	sort.Strings(children)
	return items, children, nil
}

// Remove takes an artifact out of a folder.
func (h *HomeScreen) Remove(path, artifactName string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.lookup(path)
	if err != nil {
		return err
	}
	for i, existing := range folder.Items {
		if existing == artifactName {
			folder.Items = append(folder.Items[:i], folder.Items[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("session: %q is not in folder %q", artifactName, path)
}

// BoardItem is one artifact placed on an Insights Board, with free-form
// layout (§2.4: IBs allow arbitrary positioning, unlike dashboards).
type BoardItem struct {
	Artifact string
	X, Y     int
	W, H     int
	Caption  string
}

// TextBox is a free-floating annotation on a board.
type TextBox struct {
	Text string
	X, Y int
}

// InsightsBoard is a presentation surface of unrelated artifacts — modeled
// as a poster, not an operational dashboard.
type InsightsBoard struct {
	Name string

	mu    sync.Mutex
	items []BoardItem
	texts []TextBox
}

// NewInsightsBoard creates an empty board.
func NewInsightsBoard(name string) *InsightsBoard {
	return &InsightsBoard{Name: name}
}

// Pin places an artifact on the board.
func (b *InsightsBoard) Pin(item BoardItem) error {
	if item.Artifact == "" {
		return fmt.Errorf("session: board item needs an artifact name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items = append(b.items, item)
	return nil
}

// AddText places a text box on the board.
func (b *InsightsBoard) AddText(t TextBox) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.texts = append(b.texts, t)
}

// Items returns pinned items in placement order.
func (b *InsightsBoard) Items() []BoardItem {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BoardItem{}, b.items...)
}

// Texts returns the board's text boxes.
func (b *InsightsBoard) Texts() []TextBox {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]TextBox{}, b.texts...)
}

// Unpin removes the first placement of an artifact from the board.
func (b *InsightsBoard) Unpin(artifactName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, item := range b.items {
		if item.Artifact == artifactName {
			b.items = append(b.items[:i], b.items[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("session: %q is not on board %q", artifactName, b.Name)
}
