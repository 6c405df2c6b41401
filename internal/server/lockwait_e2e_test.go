package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"datachat/internal/client"
	"datachat/internal/core"
	"datachat/internal/leaktest"
	"datachat/internal/server"
	"datachat/internal/wire"
)

// These tests pin the opt-in §2.4 lock wait over the wire: a wait that runs
// out is the same typed 409 as fail-fast, a waiter whose client goes away
// is a 499, and neither a cancelled waiter nor a cancelled run/stream leaves
// a goroutine behind. The goroutine checks serve requests in-process
// (ServeHTTP on a recorder), so no connection goroutines blur the count.

// serveJSON runs one request through the server's handler in-process.
func serveJSON(t *testing.T, ctx context.Context, srv *server.Server, w http.ResponseWriter, path string, body any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(w, req)
}

// createSession creates a session through the handler, so it inherits the
// server's lock wait.
func createSession(t *testing.T, srv *server.Server, name string) {
	t.Helper()
	rec := httptest.NewRecorder()
	serveJSON(t, context.Background(), srv, rec, "/v1/sessions", wire.CreateSessionRequest{Name: name, Owner: "ann"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create session: %d %s", rec.Code, rec.Body)
	}
}

// TestLockWaitExpiresTo409: a lock held past a short LockWait refuses the
// waiter with the fail-fast contract — typed 409 with a Retry-After hint.
func TestLockWaitExpiresTo409(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 4, LockWait: 20 * time.Millisecond})
	registerBlockingSkill(t, srv.Platform(), started, release)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "shared", "ann"); err != nil {
		t.Fatal(err)
	}
	holding := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "shared", wire.RunRequest{User: "ann", Program: program("Block", "hold")})
		holding <- err
	}()
	<-started
	_, err := c.Run(ctx, "shared", wire.RunRequest{User: "ann", Program: program("Block", "late")})
	if !client.IsBusy(err) {
		t.Fatalf("run after the lock wait = %v, want busy", err)
	}
	if client.RetryAfter(err) <= 0 {
		t.Error("busy refusal carries no retry_after hint")
	}
	close(release)
	if err := <-holding; err != nil {
		t.Fatalf("lock-holding run: %v", err)
	}
	if srv.Stats().Busy409 != 1 {
		t.Errorf("busy 409s = %d, want 1", srv.Stats().Busy409)
	}
}

// TestLockWaitCancelledWaiter499: a request queued on the session lock whose
// client goes away ends with 499 canceled, without taking the lock, and
// leaves no goroutine or timer behind.
func TestLockWaitCancelledWaiter499(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := server.New(core.New(), server.Config{MaxInFlight: 4, LockWait: time.Minute})
	registerBlockingSkill(t, srv.Platform(), started, release)
	createSession(t, srv, "shared")
	base := runtime.NumGoroutine()

	holder := httptest.NewRecorder()
	holding := make(chan struct{})
	go func() {
		defer close(holding)
		serveJSON(t, context.Background(), srv, holder, "/v1/sessions/shared/run",
			wire.RunRequest{User: "ann", Program: program("Block", "hold")})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiter := httptest.NewRecorder()
	waiting := make(chan struct{})
	go func() {
		defer close(waiting)
		serveJSON(t, ctx, srv, waiter, "/v1/sessions/shared/run",
			wire.RunRequest{User: "ann", Program: program("Block", "queued")})
	}()
	leaktest.WaitBlocked(t, "session.(*Session).lockForUser", 1)
	cancel()
	<-waiting
	var e wire.Error
	if err := json.Unmarshal(waiter.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding %q: %v", waiter.Body, err)
	}
	if waiter.Code != 499 || e.Code != wire.CodeCanceled {
		t.Fatalf("cancelled waiter = %d %q, want 499 %q", waiter.Code, e.Code, wire.CodeCanceled)
	}

	close(release)
	<-holding
	if holder.Code != http.StatusOK {
		t.Fatalf("lock-holding run: %d %s", holder.Code, holder.Body)
	}
	leaktest.Settle(t, base)
}

// cancelOnWrite is a response writer whose client goes away as soon as the
// first bytes reach it, like a disconnect mid-stream.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (w cancelOnWrite) Write(b []byte) (int, error) {
	w.cancel()
	return w.ResponseRecorder.Write(b)
}

// TestRunStreamCancelNoGoroutineLeak: a run/stream whose client goes away
// after the first chunk stops, and every goroutine it started — morsel
// workers, reassembly, context watchers — exits; the session lock is
// released for the next request.
func TestRunStreamCancelNoGoroutineLeak(t *testing.T) {
	srv := server.New(core.New(), server.Config{StreamWorkers: 4})
	srv.Platform().RegisterFile("sales.csv", wideCSV(400))
	createSession(t, srv, "s")
	loaded := httptest.NewRecorder()
	serveJSON(t, context.Background(), srv, loaded, "/v1/sessions/s/run",
		wire.RunRequest{User: "ann", GEL: "Load data from the file sales.csv"})
	var resp wire.RunResponse
	if err := json.Unmarshal(loaded.Body.Bytes(), &resp); err != nil || loaded.Code != http.StatusOK {
		t.Fatalf("load: %d %s (%v)", loaded.Code, loaded.Body, err)
	}
	run := wire.RunRequest{User: "ann", GEL: "Keep the rows where status = 'Successful'",
		Current: nodeOutput(&resp), MaxRows: 5}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	w := cancelOnWrite{httptest.NewRecorder(), cancel}
	serveJSON(t, ctx, srv, w, "/v1/sessions/s/run/stream", run)
	lines := bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n"))
	var last wire.RowChunk
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("decoding the stream's last line: %v\n%s", err, w.Body)
	}
	if !last.Last || last.Error == nil || last.Error.Code != wire.CodeCanceled {
		t.Fatalf("cancelled stream ended with %+v, want a canceled sentinel", last)
	}
	leaktest.Settle(t, base)

	next := httptest.NewRecorder()
	serveJSON(t, context.Background(), srv, next, "/v1/sessions/s/run", run)
	if next.Code != http.StatusOK {
		t.Fatalf("run after a cancelled stream: %d %s", next.Code, next.Body)
	}
}
