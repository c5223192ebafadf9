// Command cynthiactl is the kubectl-style client for cmd/master.
//
// Usage:
//
//	cynthiactl [-server 127.0.0.1:8080] get nodes
//	cynthiactl get pods [jobID]
//	cynthiactl get jobs
//	cynthiactl get job <id>
//	cynthiactl submit -workload "cifar10 DNN" -deadline 5400 -loss 0.8 [-async]
//	cynthiactl plan -workload "cifar10 DNN" -deadline 5400 -loss 0.8
//	cynthiactl timeline <jobID> [-format text|json|chrome]
//	cynthiactl events [-after N] [-job id] [-follow] [-interval 2s]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"
)

func main() {
	server := flag.String("server", "127.0.0.1:8080", "master address")
	flag.Parse()
	args := flag.Args()
	if err := run(*server, args); err != nil {
		fmt.Fprintln(os.Stderr, "cynthiactl:", err)
		os.Exit(1)
	}
}

func run(server string, args []string) error {
	base := "http://" + server
	if len(args) == 0 {
		return fmt.Errorf("usage: cynthiactl [get nodes|get pods|get jobs|get job <id>|submit ...]")
	}
	switch args[0] {
	case "get":
		if len(args) < 2 {
			return fmt.Errorf("get what? nodes, pods, jobs, or job <id>")
		}
		switch args[1] {
		case "nodes":
			return pretty(base + "/api/nodes")
		case "pods":
			u := base + "/api/pods"
			if len(args) > 2 {
				u += "?job=" + url.QueryEscape(args[2])
			}
			return pretty(u)
		case "jobs":
			return pretty(base + "/api/jobs")
		case "job":
			if len(args) < 3 {
				return fmt.Errorf("get job <id>")
			}
			return pretty(base + "/api/jobs/" + url.PathEscape(args[2]))
		default:
			return fmt.Errorf("unknown resource %q", args[1])
		}
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ContinueOnError)
		workload := fs.String("workload", "cifar10 DNN", "workload name")
		deadline := fs.Float64("deadline", 5400, "deadline in seconds")
		lossTarget := fs.Float64("loss", 0.8, "target loss")
		async := fs.Bool("async", false, "return the job ID immediately instead of waiting for the run")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		u := base + "/api/jobs"
		if *async {
			u += "?wait=false"
		}
		resp, err := postGoal(u, *workload, *deadline, *lossTarget)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return dump(resp)
	case "plan":
		// Quote a submission without provisioning: the master runs the
		// search through its plan service.
		fs := flag.NewFlagSet("plan", flag.ContinueOnError)
		workload := fs.String("workload", "cifar10 DNN", "workload name")
		deadline := fs.Float64("deadline", 5400, "deadline in seconds")
		lossTarget := fs.Float64("loss", 0.8, "target loss")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		resp, err := postGoal(base+"/api/plan", *workload, *deadline, *lossTarget)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return dump(resp)
	case "timeline":
		fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
		format := fs.String("format", "text", "timeline rendering: text, json, or chrome")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return fmt.Errorf("timeline <jobID> [-format text|json|chrome]")
		}
		jobID := rest[0]
		if err := fs.Parse(rest[1:]); err != nil { // flags may follow the job ID
			return err
		}
		u := base + "/debug/jobs/" + url.PathEscape(jobID) + "/timeline?format=" + url.QueryEscape(*format)
		if *format == "text" {
			return raw(u)
		}
		return pretty(u)
	case "events":
		fs := flag.NewFlagSet("events", flag.ContinueOnError)
		after := fs.Uint64("after", 0, "only events with a global sequence number above this")
		jobF := fs.String("job", "", "only events correlated with this job ID")
		follow := fs.Bool("follow", false, "keep polling for new events")
		interval := fs.Duration("interval", 2*time.Second, "poll interval with -follow")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		return followEvents(base, *after, *jobF, *follow, *interval)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// postGoal POSTs the shared submit/quote payload.
func postGoal(u, workload string, deadline, lossTarget float64) (*http.Response, error) {
	body, err := json.Marshal(map[string]any{
		"workload":     workload,
		"deadline_sec": deadline,
		"loss_target":  lossTarget,
	})
	if err != nil {
		return nil, err
	}
	return http.Post(u, "application/json", bytes.NewReader(body))
}

// followEvents streams the flight recorder's canonical JSONL to stdout.
// With follow it polls from the last printed sequence number, so each
// event appears exactly once.
func followEvents(base string, after uint64, job string, follow bool, interval time.Duration) error {
	for {
		u := fmt.Sprintf("%s/debug/journal?after=%d", base, after)
		if job != "" {
			u += "&job=" + url.QueryEscape(job)
		}
		resp, err := http.Get(u)
		if err != nil {
			return err
		}
		if resp.StatusCode >= 400 {
			resp.Body.Close()
			return fmt.Errorf("server returned %s", resp.Status)
		}
		// The master's journal ring is bounded; the header reports the
		// oldest sequence it still holds when our cursor fell behind it.
		if tr := resp.Header.Get("X-Journal-Truncated"); tr != "" {
			fmt.Fprintf(os.Stderr, "cynthiactl: warning: journal ring evicted events past cursor %d; oldest retained seq is %s\n", after, tr)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			fmt.Printf("%s\n", line)
			var ev struct {
				Seq uint64 `json:"seq"`
			}
			if json.Unmarshal(line, &ev) == nil && ev.Seq > after {
				after = ev.Seq
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return err
		}
		if !follow {
			return nil
		}
		time.Sleep(interval)
	}
}

// raw prints a response body verbatim (for text renderings).
func raw(u string) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("%s", body)
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}

func pretty(u string) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

func dump(resp *http.Response) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if json.Indent(&buf, raw, "", "  ") == nil {
		raw = buf.Bytes()
	}
	fmt.Printf("%s\n", raw)
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
