package distres

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// WorkerEnv is the environment variable that flips a worker-capable binary
// into shard-worker mode: any main (or TestMain) that calls
// aliasd.RunWorkerIfRequested first will, when this is set, serve the worker
// HTTP endpoint instead of running its normal command. The coordinator sets
// it when re-executing its own binary.
const WorkerEnv = "ALIASLIMIT_SHARD_WORKER"

// AttachEnv, when set to a comma-separated list of base URLs, attaches the
// coordinator to already-running workers instead of spawning processes —
// the deployment shape where workers live on other machines. The URL count
// overrides the configured worker count.
const AttachEnv = "ALIASLIMIT_SHARD_WORKERS"

// ReadyPrefix opens the line a worker prints on stdout once it is serving;
// the rest of the line is the worker's base URL.
const ReadyPrefix = "DISTRES_READY "

// readyTimeout bounds the spawn handshake: a binary that is not
// worker-capable never prints the ready line, and the coordinator must say
// so instead of hanging.
const readyTimeout = 15 * time.Second

// worker is one shard worker the coordinator talks to.
type worker struct {
	url string
	// cmd and stdin are set in spawn mode only: the worker exits when its
	// stdin reaches EOF, so holding the pipe is holding the process.
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// Cluster is a fixed-size set of shard workers plus the HTTP client the
// coordinator multiplexes over them. The identifier space is partitioned
// across the workers by ShardRoute, so the cluster size is part of the wire
// contract for any session opened on it — all sessions of one cluster share
// one worker count.
type Cluster struct {
	workers []worker
	client  *http.Client

	mu     sync.Mutex
	closed bool
}

// Size returns the number of workers.
func (c *Cluster) Size() int { return len(c.workers) }

// WorkerURL returns one worker's base URL.
func (c *Cluster) WorkerURL(i int) string { return c.workers[i].url }

// KillWorker hard-kills one spawned worker (SIGKILL), simulating a crash
// mid-stream. It is the failure-injection hook the crash tests use; attached
// workers cannot be killed from here.
func (c *Cluster) KillWorker(i int) error {
	w := c.workers[i]
	if w.cmd == nil || w.cmd.Process == nil {
		return fmt.Errorf("distres: worker %d is attached, not spawned", i)
	}
	return w.cmd.Process.Kill()
}

// attach builds a cluster over already-running workers.
func attach(urls []string) *Cluster {
	c := &Cluster{client: newClient()}
	for _, u := range urls {
		c.workers = append(c.workers, worker{url: strings.TrimRight(u, "/")})
	}
	return c
}

// newClient returns the coordinator's HTTP client. The generous timeout is a
// hang backstop, not a latency bound — megascale observation streams are
// tens of megabytes.
func newClient() *http.Client {
	return &http.Client{Timeout: 5 * time.Minute}
}

// spawn starts n shard-worker processes by re-executing the current binary
// with WorkerEnv set and waiting for each worker's ready handshake. On any
// failure the already-started workers are torn down before returning.
func spawn(n int) (*Cluster, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distres: locating own binary: %w", err)
	}
	c := &Cluster{client: newClient()}
	for i := 0; i < n; i++ {
		w, err := spawnOne(exe, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// spawnOne starts one worker process and completes its handshake.
func spawnOne(exe string, idx int) (worker, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	// Workers inherit stderr so a worker-side panic lands somewhere visible.
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return worker{}, fmt.Errorf("distres: worker %d stdin: %w", idx, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return worker{}, fmt.Errorf("distres: worker %d stdout: %w", idx, err)
	}
	if err := cmd.Start(); err != nil {
		return worker{}, fmt.Errorf("distres: starting worker %d: %w", idx, err)
	}

	ready := make(chan string, 1)
	fail := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, ReadyPrefix) {
				ready <- strings.TrimSpace(strings.TrimPrefix(line, ReadyPrefix))
				// Keep draining so the worker never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		fail <- fmt.Errorf("distres: worker %d exited before ready (%v); is this binary worker-capable? (main must call aliasd.RunWorkerIfRequested)", idx, sc.Err())
	}()

	select {
	case url := <-ready:
		return worker{url: url, cmd: cmd, stdin: stdin}, nil
	case err := <-fail:
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
		return worker{}, err
	case <-time.After(readyTimeout):
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
		return worker{}, fmt.Errorf("distres: worker %d did not report ready within %v; is this binary worker-capable? (main must call aliasd.RunWorkerIfRequested)", idx, readyTimeout)
	}
}

// Close shuts the cluster down: spawned workers see stdin EOF (their exit
// signal), get a grace period, and are killed if they overstay. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	var wg sync.WaitGroup
	for i := range c.workers {
		w := c.workers[i]
		if w.cmd == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.stdin.Close()
			done := make(chan struct{})
			go func() { w.cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				w.cmd.Process.Kill()
				<-done
			}
		}()
	}
	wg.Wait()
	return nil
}

// post sends one wire message to a worker endpoint and returns the response
// body. Any transport failure — including a worker killed mid-stream — comes
// back as an error for the session to make sticky.
func (c *Cluster) post(url string, body []byte) ([]byte, error) {
	resp, err := c.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker returned %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}
