// CN client program for "TransClosure".
// GENERATED by CNX2Java from a CNX client descriptor -- do not edit.

import org.jhpc.cn2.*;

public class TransClosure {
    public static void main(String[] args) throws Exception {
        CNAPI cn = CNAPIFactory.getInstance();
        cn.setClientPort(5666);
        cn.setLogFile("CN_Client1047909210005.log");

        // --- job 0 ---
        Job job0 = cn.createJob();
        Task tctask0 = job0.createTask("tctask0", "tasksplit.jar", "org.jhpc.cn2.transcloser.TaskSplit");
        tctask0.setMemory(1000);
        tctask0.setRunModel(RunModel.RUN_AS_THREAD_IN_TM);
        tctask0.addParameter("java.lang.String", "matrix.txt");

        Task tctask1 = job0.createTask("tctask1", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
        tctask1.setMemory(1000);
        tctask1.setRunModel(RunModel.RUN_AS_THREAD_IN_TM);
        tctask1.addDependency("tctask0");
        tctask1.addParameter("java.lang.Integer", "1");

        Task tctask2 = job0.createTask("tctask2", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
        tctask2.setMemory(1000);
        tctask2.setRunModel(RunModel.RUN_AS_THREAD_IN_TM);
        tctask2.addDependency("tctask0");
        tctask2.addParameter("java.lang.Integer", "2");

        Task tctask3 = job0.createTask("tctask3", "tctask.jar", "org.jhpc.cn2.trnsclsrtask.TCTask");
        tctask3.setMemory(1000);
        tctask3.setRunModel(RunModel.RUN_AS_THREAD_IN_TM);
        tctask3.addDependency("tctask0");
        tctask3.addParameter("java.lang.Integer", "3");

        Task tctask999 = job0.createTask("tctask999", "taskjoin.jar", "org.jhpc.cn2.transcloser.TaskJoin");
        tctask999.setMemory(1000);
        tctask999.setRunModel(RunModel.RUN_AS_THREAD_IN_TM);
        tctask999.addDependency("tctask1");
        tctask999.addDependency("tctask2");
        tctask999.addDependency("tctask3");
        tctask999.addParameter("java.lang.String", "matrix.txt");

        job0.startTasks();
        job0.waitForCompletion();
        cn.shutdown();
    }
}
