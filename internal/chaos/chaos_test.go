package chaos

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScheduleReproducible(t *testing.T) {
	counts := map[Kind]int{KillServer: 2, SeverConns: 1, StopWorker: 1, KillWorker: 1}
	a := Generate(42, 4, 12, counts)
	b := Generate(42, 4, 12, counts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a, b)
	}
	if len(a.Events) != 5 {
		t.Fatalf("got %d events, want 5: %s", len(a.Events), a)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i-1].After > a.Events[i].After {
			t.Fatalf("events out of trigger order: %s", a)
		}
	}
	for _, ev := range a.Events {
		if ev.After < 1 || ev.After > 6 {
			t.Fatalf("trigger %d outside [1, cells/2]: %s", ev.After, a)
		}
		if (ev.Kind == StopWorker || ev.Kind == KillWorker) && (ev.Worker < 0 || ev.Worker >= 4) {
			t.Fatalf("worker target %d outside fleet: %s", ev.Worker, a)
		}
	}
	if got := a.Counts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("Counts() = %v, want %v", got, counts)
	}
	if a.String() == "" || Generate(7, 1, 1, nil).String() == "" {
		t.Fatal("String() empty")
	}
	if c := Generate(42, 4, 12, counts); !reflect.DeepEqual(a, c) {
		t.Fatal("third generation diverged")
	}
	if d := Generate(43, 4, 12, counts); reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// A run whose schedule did not fire in full fails Verify, however
// clean the rest of it is: it tested less than its schedule claims.
func TestVerifyFailsOnUnfiredEvents(t *testing.T) {
	baseline := Report{CSV: []byte("n,trial\n30,0\n")}
	rep := Report{
		CSV:              baseline.CSV,
		View:             SweepView{Status: "done", Cells: 1, Executed: 1},
		ServerExecutions: 3,
	}
	if err := Verify(rep, baseline, 3); err != nil {
		t.Fatalf("a clean run failed Verify: %v", err)
	}
	rep.Unfired = 1
	if err := Verify(rep, baseline, 3); err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Fatalf("Verify with an unfired event = %v, want a failure", err)
	}
}

// TestProxySever runs an echo server behind the proxy: a severed conn
// dies, a fresh dial through the same proxy works.
func TestProxySever(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					c.Write(append(sc.Bytes(), '\n'))
				}
				c.Close()
			}()
		}
	}()

	p, err := NewProxy("127.0.0.1:0", echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	roundTrip := func(c net.Conn) error {
		if _, err := c.Write([]byte("ping\n")); err != nil {
			return err
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := bufio.NewReader(c).ReadString('\n')
		return err
	}

	c1, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := roundTrip(c1); err != nil {
		t.Fatalf("relay through proxy: %v", err)
	}

	if n := p.Sever(); n != 1 {
		t.Fatalf("Sever() dropped %d pairs, want 1", n)
	}
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bufio.NewReader(c1).ReadString('\n'); err == nil {
		t.Fatal("severed conn still delivers data")
	}

	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := roundTrip(c2); err != nil {
		t.Fatalf("reconnect after sever: %v", err)
	}
}

// TestProxySeverForgetsClosedConns severs twice: the second Sever must
// count and close only the conn opened after the first, and a third,
// with nothing opened since, must find nothing.
func TestProxySeverForgetsClosedConns(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	p, err := NewProxy("127.0.0.1:0", sink.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// dial opens a conn through the proxy and waits until the proxy has
	// relayed it to the sink and holds pairs live pairs.
	dial := func(pairs int) {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-accepted:
			t.Cleanup(func() { s.Close() })
		case <-time.After(5 * time.Second):
			t.Fatal("the proxy did not relay the conn")
		}
		t.Cleanup(func() { c.Close() })
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			p.mu.Lock()
			live := len(p.conns)
			p.mu.Unlock()
			if live == 2*pairs {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the proxy holds %d conns, want %d", live, 2*pairs)
			}
		}
	}

	dial(1)
	dial(2)
	if n := p.Sever(); n != 2 {
		t.Fatalf("first Sever() dropped %d pairs, want 2", n)
	}
	dial(1)
	if n := p.Sever(); n != 1 {
		t.Fatalf("second Sever() dropped %d pairs, want 1 (only the conn opened since)", n)
	}
	if n := p.Sever(); n != 0 {
		t.Fatalf("third Sever() dropped %d pairs, want 0", n)
	}
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildBinaries compiles vmat-server and vmat-worker once per test
// binary, into a shared temp dir.
func buildBinaries(t *testing.T) (server, worker string) {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "chaos-bin-")
		if buildErr != nil {
			return
		}
		for _, pkg := range []string{"vmat-server", "vmat-worker"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, pkg), "./cmd/"+pkg)
			cmd.Dir = "../.."
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", pkg, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("build binaries: %v", buildErr)
	}
	return filepath.Join(buildDir, "vmat-server"), filepath.Join(buildDir, "vmat-worker")
}

// TestServerKillMidSweepRecovers is the tentpole end to end with real
// processes: a 4-worker fleet runs a sweep, the server is SIGKILLed
// after the first cells complete, restarts on the same data dir,
// resumes the sweep unprompted under the SAME ID, and the final CSV is
// bit-identical to an undisturbed zero-fleet baseline with total engine
// executions bounded — completed cells came back from the store.
func TestServerKillMidSweepRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e chaos run: real processes, SIGKILL, restart")
	}
	serverBin, workerBin := buildBinaries(t)
	work := t.TempDir()
	const trials = 3
	cfg := Config{
		ServerBin: serverBin,
		WorkerBin: workerBin,
		Workers:   4,
		// 12 cells x 3 trials: enough runway that the kill (armed at the
		// first completed cell) always lands with work outstanding.
		Grid:     `{"n":[30,35,40,45,50,55],"attack":["none","drop"],"trials":3,"seed":11,"workers":1}`,
		Trials:   trials,
		DataDir:  filepath.Join(work, "data"),
		WorkDir:  filepath.Join(work, "run"),
		Schedule: Schedule{Seed: 11, Events: []Event{{Kind: KillServer, After: 1}}},
		LeaseTTL: 2 * time.Second,
		Log:      t.Logf,
	}

	baseline, err := Baseline(cfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseline.View.Cells != 12 {
		t.Fatalf("baseline expanded to %d cells, want 12", baseline.View.Cells)
	}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.ServerKills != 1 {
		t.Fatalf("server killed %d times, want 1 (sweep finished before the trigger armed?)", rep.ServerKills)
	}
	if rep.SweepID != baseline.SweepID {
		// Both runs start from empty state, so the first sweep ID must
		// match — and the chaos run must keep it across the restart.
		t.Fatalf("sweep ID %q diverged from baseline %q", rep.SweepID, baseline.SweepID)
	}
	if err := Verify(rep, baseline, trials); err != nil {
		t.Fatal(err)
	}
	t.Logf("verified: %d cells, %d cached after restart (%d done before kill), executions server=%d fleet=%d",
		rep.View.Cells, rep.View.Cached, rep.DoneBeforeLastKill, rep.ServerExecutions, rep.WorkerExecutions)
}
