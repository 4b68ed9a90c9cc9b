package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// child is the harness's handle on one server process: this binary
// re-executed with -serve, driven over its stdin/stdout control pipe.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	hello hello
}

// spawnChild starts a server process and waits until it listens.
func spawnChild(trace bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve"}
	if trace {
		args = append(args, "-serve-trace")
	}
	cmd := exec.Command(exe, args...)
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
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20)}
	if err := c.read(&c.hello); err != nil {
		c.close()
		return nil, fmt.Errorf("server child did not start: %w", err)
	}
	return c, nil
}

func (c *child) read(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call sends one control command and decodes its one-line reply.
func (c *child) call(cmd string, reply any) error {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return fmt.Errorf("control %q: %w", cmd, err)
	}
	if err := c.read(reply); err != nil {
		return fmt.Errorf("control %q: %w", cmd, err)
	}
	return nil
}

func (c *child) snap() (childSnap, error) {
	var s childSnap
	err := c.call("snap", &s)
	return s, err
}

// close ends the child by closing its control pipe and waits for it.
func (c *child) close() error {
	c.in.Close()
	return c.cmd.Wait()
}
