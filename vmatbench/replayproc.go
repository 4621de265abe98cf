package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// replayWorkerArg runs the binary as the traced run's replay process.
const replayWorkerArg = "replay-worker"

// replayCmd asks the replay process to replay paired requests
// [From, From+Count), with spans on or off.
type replayCmd struct {
	From  int  `json:"from"`
	Count int  `json:"count"`
	Spans bool `json:"spans"`
}

// replayResp is the replay process's answer: the block's wall time and,
// with spans on, every span recorded since the last answer.
type replayResp struct {
	ElapsedNS int64  `json:"elapsed_ns"`
	Spans     []Span `json:"spans,omitempty"`
	Error     string `json:"error,omitempty"`
}

// replayProc is the parent's handle on a running replay process.
type replayProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startReplayProc(cfg config, dir, keyfile string) (*replayProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(self, replayWorkerArg, "--workload", cfg.Workload,
		"--seed", strconv.FormatUint(cfg.Seed, 10), "--keyfile", keyfile, "--dir", dir)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	return &replayProc{cmd: cmd, in: in, out: sc}, nil
}

func (p *replayProc) do(c replayCmd) (replayResp, error) {
	line, err := json.Marshal(c)
	if err != nil {
		return replayResp{}, err
	}
	if _, err := p.in.Write(append(line, '\n')); err != nil {
		return replayResp{}, fmt.Errorf("replay process: %w", err)
	}
	if !p.out.Scan() {
		return replayResp{}, fmt.Errorf("replay process exited: %v", p.out.Err())
	}
	var r replayResp
	if err := json.Unmarshal(p.out.Bytes(), &r); err != nil {
		return replayResp{}, fmt.Errorf("replay process: %w", err)
	}
	if r.Error != "" {
		return replayResp{}, errors.New(r.Error)
	}
	return r, nil
}

// stop closes the command stream, which ends the replay process, and
// waits for it.
func (p *replayProc) stop() {
	p.in.Close()
	_ = p.cmd.Wait() // an error was already reported through do
}

// replayWorker is the replay process: it holds a replay environment
// with spans and one without, and replays the blocks it is sent until
// its input closes.
func replayWorker(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet(replayWorkerArg, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	keyfile := fs.String("keyfile", "", "tenant keyfile")
	dir := fs.String("dir", "", "directory for the replay stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := NewGenerator(*workload, *seed)
	if err != nil {
		return err
	}
	rec := NewRecorder()
	on, err := newReplayEnv(rec, filepath.Join(*dir, "on"), *keyfile, tenantKeys)
	if err != nil {
		return err
	}
	defer on.close()
	off, err := newReplayEnv(nil, filepath.Join(*dir, "off"), *keyfile, tenantKeys)
	if err != nil {
		return err
	}
	defer off.close()
	if *workload == WarmHits {
		warm := g.WarmUp()
		refs, err := references(warm)
		if err != nil {
			return err
		}
		for _, e := range []*replayEnv{on, off} {
			if err := e.preload(warm, refs); err != nil {
				return err
			}
		}
	}
	sc := bufio.NewScanner(in)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		var c replayCmd
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return err
		}
		reqs := make([]Request, c.Count)
		for i := range reqs {
			reqs[i] = g.Request(pairBase + c.From + i)
		}
		e := off
		if c.Spans {
			e = on
		}
		d, err := runReplay(e, reqs)
		resp := replayResp{ElapsedNS: int64(d)}
		if err != nil {
			resp.Error = err.Error()
		}
		if c.Spans {
			resp.Spans = rec.Take()
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	return sc.Err()
}
