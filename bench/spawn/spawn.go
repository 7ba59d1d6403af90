// Package spawn starts the benchmark's cold processes through a small
// helper process and reports what each one cost.
//
// On Linux a child's ru_maxrss is never below the peak resident set of the
// address space that forked it: the child runs on the parent's address
// space until exec, and exec folds that space's high-water mark into the
// child's accounting. The harness links most of the repository and peaks
// at 9 to 13 MB untraced, so a 13 MB klotski process it started itself
// would report little but the harness's peak. The spawner (../spawner) is
// a process that imports only this package: its own peak, under 4 MB, is
// the least peak_rss_mb can show.
package spawn

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Stat is what one finished child process cost.
type Stat struct {
	Wall  float64 `json:"wall"`   // seconds, start of exec to reaped
	CPU   float64 `json:"cpu"`    // seconds, user+sys from wait4's rusage
	RSSKB int64   `json:"rss_kb"` // ru_maxrss
}

// request asks the spawner to run one process to completion.
type request struct {
	Dir  string   `json:"dir"`
	Bin  string   `json:"bin"`
	Args []string `json:"args"`
}

type reply struct {
	Stat
	Stderr []byte `json:"stderr"`
	Err    string `json:"err,omitempty"`
}

// Serve is the spawner's main loop: one request in, one reply out, until
// in is at its end.
func Serve(in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		st, stderr, err := runChild(req.Dir, req.Bin, req.Args...)
		rep := reply{Stat: st, Stderr: stderr}
		if err != nil {
			rep.Err = err.Error()
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
}

// runChild runs one cold process to completion and returns its cost and
// its standard error. The child's working directory is dir.
func runChild(dir, bin string, args ...string) (Stat, []byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	st := Stat{Wall: time.Since(start).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		st.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.RSSKB = int64(ru.Maxrss)
		}
	}
	if err != nil {
		return st, stderr.Bytes(), fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return st, stderr.Bytes(), nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// Client is the harness's handle on its spawner process.
type Client struct {
	mu    sync.Mutex
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// Start starts the spawner binary in a process group of its own, so that
// stopping it also stops whatever it is running.
func Start(bin string) (*Client, error) {
	cmd := exec.Command(bin)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &Client{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// Run executes one cold process through the spawner.
func (c *Client) Run(dir, bin string, args ...string) (Stat, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(request{Dir: dir, Bin: bin, Args: args}); err != nil {
		return Stat{}, nil, fmt.Errorf("spawner: %w", err)
	}
	var rep reply
	if err := c.dec.Decode(&rep); err != nil {
		return Stat{}, nil, fmt.Errorf("spawner: %w", err)
	}
	if rep.Err != "" {
		return rep.Stat, rep.Stderr, errors.New(rep.Err)
	}
	return rep.Stat, rep.Stderr, nil
}

// Pid is the spawner's process ID.
func (c *Client) Pid() int { return c.cmd.Process.Pid }

// Close stops the spawner, and anything it is still running, and waits for
// it to end.
func (c *Client) Close() {
	c.stdin.Close()
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // the group is gone already after a clean EOF exit
	_ = c.cmd.Wait()
}
